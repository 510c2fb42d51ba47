#pragma once
// LEB128 variable-length integer primitives for the wire codec layer
// (comm/codec.h). Little-endian base-128: each byte carries 7 value bits,
// the high bit marks continuation. Small values — MRBC distances, source
// indices, presence offsets, sigma path counts — fit in one or two bytes
// instead of the fixed 4/8 the POD serializer ships, which is where the
// substrate's payload-compression win comes from.
//
// Encoders are branch-light loops over stack buffers; decoders validate
// length (max 10 bytes for 64 bits) and never read past the supplied end.

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace mrbc::util {

/// A 64-bit varint never exceeds ceil(64/7) = 10 bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Encoded size of `v` in bytes (1..10).
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Encodes `v` into `out`, which must hold varint_size(v) bytes (at most
/// kMaxVarintBytes; 5 for any u32); returns bytes written.
inline std::size_t encode_varint(std::uint64_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

/// Decodes one varint from [data + cursor, data + size); advances `cursor`.
/// Throws std::out_of_range on truncation or on an encoding longer than 10
/// bytes (a corrupted frame must fail loudly, like RecvBuffer::require).
inline std::uint64_t decode_varint(const std::uint8_t* data, std::size_t size,
                                   std::size_t& cursor) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (cursor >= size) throw std::out_of_range("varint: truncated encoding");
    const std::uint8_t byte = data[cursor++];
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // The 10th byte may only contribute the final value bit (64 = 9*7+1).
      if (i == kMaxVarintBytes - 1 && byte > 1) {
        throw std::out_of_range("varint: value exceeds 64 bits");
      }
      return value;
    }
    shift += 7;
  }
  throw std::out_of_range("varint: encoding exceeds 10 bytes");
}

}  // namespace mrbc::util
