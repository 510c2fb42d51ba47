#include "comm/codec.h"

namespace mrbc::comm {

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
  std::uint8_t encoded[kMaxTaggedF64Bytes];
  buf.write_encoded(encoded, encode_tagged_f64(v, encoded), sizeof(double));
}

double read_f64(util::RecvBuffer& buf, CodecMode mode) {
  if (!compress_values(mode)) return buf.read<double>();
  return buf.decode(decode_tagged_f64);
}

}  // namespace mrbc::comm
