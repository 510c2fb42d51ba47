#pragma once
// Wire codec layer for the communication substrate: payload and metadata
// compression over the byte-exact serialization buffers, modelling the
// compression half of Gluon's communication optimizations (the update
// tracking / metadata half lives in substrate.h's presence encoding).
//
// Three ablatable modes, selected per Substrate via DeliveryOptions:
//   kRaw          — fixed-width POD, byte-identical to the historical wire.
//   kMetadataOnly — structural integers (counts, element lengths, presence
//                   offset lists) become LEB128 varints, sorted offset
//                   lists additionally delta-encoded; payload values stay
//                   fixed-width.
//   kFull         — kMetadataOnly plus payload compression: uint32 planes
//                   are frame-of-reference (subtract-min) + varint packed,
//                   doubles use the tagged-integral encoding below.
//                   Decoded values are bit-identical to the raw wire in
//                   every mode — compression changes bytes on the wire,
//                   never the arithmetic behind them.
//
// Doubles: BC sigma/delta values are IEEE doubles, but forward-phase sigma
// values are integral shortest-path counts, so most of them round-trip
// exactly through an integer. The tagged encoding exploits that without
// ever approximating: a non-negative integral double below 2^53 (excluding
// -0.0) is sent as varint((uint64(v) << 1) | 1); anything else is sent as
// a 0x00 escape byte followed by the 8 raw IEEE bytes. Decoding either
// form reproduces the exact source bit pattern.
//
// Every compressed write also records the fixed-width size it replaced
// (SendBuffer::raw_bytes), which is how SyncStats::raw_bytes and the
// obs compression-ratio histogram measure the achieved reduction.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/serialize.h"
#include "util/varint.h"

namespace mrbc::comm {

enum class CodecMode : std::uint8_t {
  kRaw = 0,
  kMetadataOnly = 1,
  kFull = 2,
};

const char* codec_mode_name(CodecMode mode);

/// Parses "raw" / "metadata" / "full"; returns false on unknown names.
bool parse_codec_mode(const std::string& name, CodecMode& out);

inline bool compress_metadata(CodecMode m) { return m != CodecMode::kRaw; }
inline bool compress_values(CodecMode m) { return m == CodecMode::kFull; }

/// Longest tagged double: the escape byte and the 8 raw IEEE bytes. The
/// integral form is a varint below 2^54, so at most 8 bytes.
inline constexpr std::size_t kMaxTaggedF64Bytes = 1 + sizeof(double);

/// The tagged-integral double encoding at pointer level, behind write_f64
/// and read_f64 in kFull and the checkpoint label planes. Encodes `v` at
/// `out`, which must hold kMaxTaggedF64Bytes, and returns the bytes
/// written.
inline std::size_t encode_tagged_f64(double v, std::uint8_t* out) {
  // Doubles at or above 2^53 no longer have a unique integer preimage, and
  // the negative zero's sign bit has no integer to ride on. NaN and the
  // infinities fail the comparisons.
  constexpr double kMaxExactIntegral = 9007199254740992.0;  // 2^53
  if (v >= 0.0 && v < kMaxExactIntegral && v == std::floor(v) &&
      !(v == 0.0 && std::signbit(v))) {
    return util::encode_varint((static_cast<std::uint64_t>(v) << 1) | 1u, out);
  }
  out[0] = 0;  // escape
  std::memcpy(out + 1, &v, sizeof(double));
  return kMaxTaggedF64Bytes;
}

/// Decodes one encode_tagged_f64 value from [data + cursor, data + size)
/// and advances `cursor`, bit-exactly; throws std::out_of_range on
/// truncation or a corrupted tag, like util::decode_varint.
inline double decode_tagged_f64(const std::uint8_t* data, std::size_t size,
                                std::size_t& cursor) {
  const std::uint64_t tag = util::decode_varint(data, size, cursor);
  if (tag & 1u) return static_cast<double>(tag >> 1);
  if (tag != 0) {
    // Even nonzero tags are unreachable from the encoder: corrupted frame.
    throw std::out_of_range("codec: corrupted f64 tag");
  }
  if (size - cursor < sizeof(double)) throw std::out_of_range("codec: truncated f64");
  double v;
  std::memcpy(&v, data + cursor, sizeof(double));
  cursor += sizeof(double);
  return v;
}

/// Appends one double under `mode` (tagged-integral in kFull, raw bits
/// otherwise); the raw-equivalent accounting is always 8 bytes.
void write_f64(util::SendBuffer& buf, double v, CodecMode mode);

/// Reads one double written by write_f64 under the same mode; bit-exact.
double read_f64(util::RecvBuffer& buf, CodecMode mode);

/// Mode-aware writer over a SendBuffer. Thin: holds a reference and the
/// mode so accessor serialization code states *what* each field is
/// (metadata integer, payload value, double, sorted list) and the codec
/// decides the wire form. In kRaw every method reproduces the historical
/// fixed-width bytes exactly.
class CodecWriter {
 public:
  CodecWriter(util::SendBuffer& buf, CodecMode mode) : buf_(buf), mode_(mode) {}

  util::SendBuffer& buffer() { return buf_; }
  CodecMode mode() const { return mode_; }

  /// Tag bytes are a single byte in every mode.
  void u8(std::uint8_t v) { buf_.write(v); }

  /// Structural integers: counts, exchange-list indices, lengths.
  void meta_u32(std::uint32_t v) {
    if (compress_metadata(mode_)) {
      buf_.write_varint(v, sizeof(std::uint32_t));
    } else {
      buf_.write(v);
    }
  }
  void meta_u64(std::uint64_t v) {
    if (compress_metadata(mode_)) {
      buf_.write_varint(v, sizeof(std::uint64_t));
    } else {
      buf_.write(v);
    }
  }

  /// Payload integers: label values themselves (distances, source ids).
  void value_u32(std::uint32_t v) {
    if (compress_values(mode_)) {
      buf_.write_varint(v, sizeof(std::uint32_t));
    } else {
      buf_.write(v);
    }
  }
  void f64(double v) { write_f64(buf_, v, mode_); }

  /// Sorted ascending uint32 list (presence offsets, sorted LID lists):
  /// delta-encoded varints in compressed modes, write_vector bytes in kRaw.
  void sorted_u32_list(const std::vector<std::uint32_t>& values) {
    if (!compress_metadata(mode_)) {
      buf_.write_vector(values);
      return;
    }
    buf_.write_varint(values.size(), sizeof(std::uint64_t));
    std::uint32_t prev = 0;
    for (std::uint32_t v : values) {
      buf_.write_varint(v - prev, sizeof(std::uint32_t));
      prev = v;
    }
  }

  /// Length-prefixed plane of packed POD values; the count is metadata,
  /// the payload is the raw element bytes (matches write_vector in kRaw).
  template <typename T>
  void pod_plane(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>, "pod_plane requires POD elements");
    meta_u64(values.size());
    if (!values.empty()) buf_.write_raw(values.data(), values.size() * sizeof(T));
  }

 private:
  util::SendBuffer& buf_;
  CodecMode mode_;
};

/// Mode-aware reader mirroring CodecWriter. Corrupted frames (varints that
/// decode outside the declared field width, lengths past the buffer end)
/// throw std::out_of_range like every other RecvBuffer failure.
class CodecReader {
 public:
  CodecReader(util::RecvBuffer& buf, CodecMode mode) : buf_(buf), mode_(mode) {}

  util::RecvBuffer& buffer() { return buf_; }
  CodecMode mode() const { return mode_; }

  std::uint8_t u8() { return buf_.read<std::uint8_t>(); }

  std::uint32_t meta_u32() {
    return compress_metadata(mode_) ? narrow_u32(buf_.read_varint())
                                    : buf_.read<std::uint32_t>();
  }
  std::uint64_t meta_u64() {
    return compress_metadata(mode_) ? buf_.read_varint() : buf_.read<std::uint64_t>();
  }

  std::uint32_t value_u32() {
    return compress_values(mode_) ? narrow_u32(buf_.read_varint())
                                  : buf_.read<std::uint32_t>();
  }
  double f64() { return read_f64(buf_, mode_); }

  std::vector<std::uint32_t> sorted_u32_list() {
    if (!compress_metadata(mode_)) return buf_.read_vector<std::uint32_t>();
    const std::uint64_t n = buf_.read_varint();
    // Each delta occupies at least one wire byte, so a length beyond the
    // remaining bytes is a corrupted frame, not a short read.
    if (n > buf_.remaining()) {
      throw std::out_of_range("codec: sorted list length exceeds buffer");
    }
    std::vector<std::uint32_t> values(n);
    std::uint64_t prev = 0;
    for (auto& v : values) {
      prev += buf_.read_varint();
      v = narrow_u32(prev);
    }
    return values;
  }

  template <typename T>
  std::vector<T> pod_plane() {
    static_assert(std::is_trivially_copyable_v<T>, "pod_plane requires POD elements");
    const std::uint64_t n = meta_u64();
    if (n > buf_.remaining() / sizeof(T)) {
      throw std::out_of_range("codec: plane length exceeds buffer");
    }
    std::vector<T> values(n);
    if (n > 0) buf_.read_raw(values.data(), n * sizeof(T));
    return values;
  }

 private:
  static std::uint32_t narrow_u32(std::uint64_t v) {
    if (v > 0xFFFFFFFFull) {
      throw std::out_of_range("codec: varint exceeds declared u32 field");
    }
    return static_cast<std::uint32_t>(v);
  }

  util::RecvBuffer& buf_;
  CodecMode mode_;
};

/// Per-element-type plane codec used by the substrate's fixed-width
/// reduce/broadcast paths. The generic form ships packed POD bytes in
/// every mode (only the count prefix compresses); specializations teach
/// kFull how to pack specific label types. Wire format is symmetric:
/// read_plane(CodecReader) inverts write_plane(CodecWriter) at the same
/// mode, bit-exactly.
template <typename T>
struct ValueCodec {
  static void write_plane(CodecWriter& w, const std::vector<T>& values) {
    w.pod_plane(values);
  }
  static std::vector<T> read_plane(CodecReader& r) { return r.pod_plane<T>(); }
};

/// uint32 planes (distances, ids): frame-of-reference in kFull — varint
/// count, varint minimum, then varint(v - min) per element. Subtracting
/// the minimum matters when a plane sits far from zero (e.g. global ids).
template <>
struct ValueCodec<std::uint32_t> {
  static void write_plane(CodecWriter& w, const std::vector<std::uint32_t>& values) {
    if (!compress_values(w.mode())) {
      w.pod_plane(values);
      return;
    }
    w.meta_u64(values.size());
    if (values.empty()) return;
    const std::uint32_t min = *std::min_element(values.begin(), values.end());
    // The reference value has no fixed-width counterpart: raw-equivalent 0.
    w.buffer().write_varint(min, 0);
    for (std::uint32_t v : values) {
      w.buffer().write_varint(v - min, sizeof(std::uint32_t));
    }
  }

  static std::vector<std::uint32_t> read_plane(CodecReader& r) {
    if (!compress_values(r.mode())) return r.pod_plane<std::uint32_t>();
    const std::uint64_t n = r.meta_u64();
    if (n > r.buffer().remaining()) {
      throw std::out_of_range("codec: plane length exceeds buffer");
    }
    std::vector<std::uint32_t> values(n);
    if (n == 0) return values;
    const std::uint64_t min = r.buffer().read_varint();
    for (auto& v : values) {
      const std::uint64_t val = min + r.buffer().read_varint();
      if (val > 0xFFFFFFFFull) {
        throw std::out_of_range("codec: u32 plane value out of range");
      }
      v = static_cast<std::uint32_t>(val);
    }
    return values;
  }
};

/// double planes (sigma / delta labels): tagged-integral per element in
/// kFull, packed IEEE bytes otherwise.
template <>
struct ValueCodec<double> {
  static void write_plane(CodecWriter& w, const std::vector<double>& values) {
    if (!compress_values(w.mode())) {
      w.pod_plane(values);
      return;
    }
    w.meta_u64(values.size());
    for (double v : values) w.f64(v);
  }

  static std::vector<double> read_plane(CodecReader& r) {
    if (!compress_values(r.mode())) return r.pod_plane<double>();
    const std::uint64_t n = r.meta_u64();
    if (n > r.buffer().remaining()) {
      throw std::out_of_range("codec: plane length exceeds buffer");
    }
    std::vector<double> values(n);
    for (auto& v : values) v = r.f64();
    return values;
  }
};

}  // namespace mrbc::comm
