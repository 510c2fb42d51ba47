#include "comm/codec.h"

#include <cmath>

namespace mrbc::comm {

namespace {

/// Doubles at or above 2^53 no longer have a unique integer preimage, so
/// the tagged path stops there and falls back to raw IEEE bytes.
constexpr double kMaxExactIntegral = 9007199254740992.0;  // 2^53

/// True when `v` round-trips bit-exactly through uint64: non-negative,
/// integral, below 2^53, and not the negative zero (whose sign bit an
/// integer cannot carry). NaN and infinities fail the comparisons.
bool integral_taggable(double v) {
  return v >= 0.0 && v < kMaxExactIntegral && v == std::floor(v) &&
         !(v == 0.0 && std::signbit(v));
}

}  // namespace

const char* codec_mode_name(CodecMode mode) {
  switch (mode) {
    case CodecMode::kRaw:
      return "raw";
    case CodecMode::kMetadataOnly:
      return "metadata";
    case CodecMode::kFull:
      return "full";
  }
  return "unknown";
}

bool parse_codec_mode(const std::string& name, CodecMode& out) {
  if (name == "raw") {
    out = CodecMode::kRaw;
  } else if (name == "metadata" || name == "metadata-only") {
    out = CodecMode::kMetadataOnly;
  } else if (name == "full") {
    out = CodecMode::kFull;
  } else {
    return false;
  }
  return true;
}

void write_f64(util::SendBuffer& buf, double v, CodecMode mode) {
  if (!compress_values(mode)) {
    buf.write(v);
    return;
  }
  if (integral_taggable(v)) {
    // (u << 1) | 1 stays below 2^54, so the varint is at most 8 bytes —
    // the tagged form is never wider than the raw double it replaces.
    buf.write_varint((static_cast<std::uint64_t>(v) << 1) | 1u, sizeof(double));
  } else {
    const std::uint8_t escape = 0;
    buf.write_encoded(&escape, 1, 0);
    buf.write_encoded(&v, sizeof(double), sizeof(double));
  }
}

double read_f64(util::RecvBuffer& buf, CodecMode mode) {
  if (!compress_values(mode)) return buf.read<double>();
  const std::uint64_t tag = buf.read_varint();
  if (tag & 1u) return static_cast<double>(tag >> 1);
  if (tag != 0) {
    // Even nonzero tags are unreachable from write_f64: corrupted frame.
    throw std::out_of_range("codec: corrupted f64 tag");
  }
  double v;
  buf.read_raw(&v, sizeof(double));
  return v;
}

}  // namespace mrbc::comm
