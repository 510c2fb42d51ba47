#pragma once
// Byte-oriented serialization buffers, modelling Gluon's message
// (de)serialization layer. The communication substrate serializes proxy
// labels into SendBuffers, "transmits" them (the simulator just moves the
// vector), and deserializes on the receiving host — so per-phase byte
// counts are exact, not estimated.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/varint.h"

namespace mrbc::util {

/// Append-only serialization buffer.
///
/// Alongside the actual bytes it tracks the *raw-equivalent* size — what the
/// same writes would have produced with fixed-width POD encoding. For plain
/// writes the two are equal; codec-layer writes (write_varint and friends)
/// append fewer bytes than their raw equivalent, and the delta is what the
/// substrate reports as compression savings (SyncStats::raw_bytes vs bytes).
class SendBuffer {
 public:
  SendBuffer() = default;
  /// Starts empty on `storage`'s allocation, so a writer that refills a
  /// buffer of the same size every time (the BSP loop's checkpoints) stops
  /// paying for growth and page faults after the first fill.
  explicit SendBuffer(std::vector<std::uint8_t> storage) : bytes_(std::move(storage)) {
    bytes_.clear();
  }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "write requires a POD type");
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
    raw_bytes_ += sizeof(T);
  }

  template <typename T>
  void write_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>, "write_vector requires POD elements");
    reserve(bytes_.size() + sizeof(std::uint64_t) + values.size() * sizeof(T));
    write<std::uint64_t>(values.size());
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(bytes_.data() + offset, values.data(), values.size() * sizeof(T));
    }
    raw_bytes_ += values.size() * sizeof(T);
  }

  /// write_vector framing (u64 count + packed elements) for data that is
  /// not owned by a std::vector — arena-carved spans checkpoint through
  /// this so the wire bytes stay identical to the historical vector layout.
  template <typename T>
  void write_array(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>, "write_array requires POD elements");
    reserve(bytes_.size() + sizeof(std::uint64_t) + count * sizeof(T));
    write<std::uint64_t>(count);
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + count * sizeof(T));
    if (count > 0) std::memcpy(bytes_.data() + offset, values, count * sizeof(T));
    raw_bytes_ += count * sizeof(T);
  }

  /// Appends `v` as a LEB128 varint. `raw_equivalent` is the fixed-width
  /// size the value would have occupied without the codec (e.g. sizeof a
  /// uint32 field); it feeds the raw-vs-encoded accounting, not the wire.
  void write_varint(std::uint64_t v, std::size_t raw_equivalent) {
    std::uint8_t tmp[kMaxVarintBytes];
    const std::size_t n = encode_varint(v, tmp);
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + n);
    std::memcpy(bytes_.data() + offset, tmp, n);
    raw_bytes_ += raw_equivalent;
  }

  /// Appends pre-encoded bytes whose fixed-width equivalent differs from
  /// their encoded size (tagged doubles, packed planes).
  void write_encoded(const void* data, std::size_t n, std::size_t raw_equivalent) {
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + n);
    if (n > 0) std::memcpy(bytes_.data() + offset, data, n);
    raw_bytes_ += raw_equivalent;
  }

  /// Appends `n` zero bytes and returns where they start, for writers that
  /// fill a pre-sized region in one pass (packed record planes). The
  /// pointer is valid until the next write.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + n);
    raw_bytes_ += n;
    return bytes_.data() + offset;
  }

  void write_bitset(const DynamicBitset& bits);
  void write_string(const std::string& s);

  /// Appends raw bytes without a length prefix (framing layers that manage
  /// their own structure, e.g. the reliable-delivery wire format).
  void write_raw(const void* data, std::size_t n);

  /// Appends another buffer's bytes verbatim.
  void append(const SendBuffer& other) { write_raw(other.bytes_.data(), other.bytes_.size()); }

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  /// Drops the contents but keeps the allocation — a cleared buffer refills
  /// to its previous size without touching the allocator, which is what the
  /// substrate's per-pair buffer pool relies on to kill per-round churn.
  void clear() {
    bytes_.clear();
    raw_bytes_ = 0;
  }
  std::size_t capacity() const { return bytes_.capacity(); }

  /// Fixed-width-equivalent size of everything written so far; equals
  /// size() unless varint/encoded writes compressed the payload.
  std::size_t raw_bytes() const { return raw_bytes_; }

  /// Pre-sizes the backing store so subsequent writes up to `total` bytes
  /// never reallocate (writers that know their payload size call this once
  /// instead of growing via repeated resize). Grows geometrically when the
  /// request exceeds the current capacity: vector::reserve allocates the
  /// exact amount asked for, so a stream of small reserves just past a
  /// large buffer's capacity would otherwise copy the whole buffer on
  /// every call — quadratic time for checkpoint-sized payloads.
  void reserve(std::size_t total) {
    if (total <= bytes_.capacity()) return;
    bytes_.reserve(std::max(total, bytes_.capacity() + bytes_.capacity() / 2));
  }

  std::vector<std::uint8_t>&& take() {
    raw_bytes_ = 0;
    return std::move(bytes_);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t raw_bytes_ = 0;
};

/// Sequential deserialization over a received byte sequence. Either owns
/// the bytes (vector constructor — the historical "transmit by moving the
/// vector" path) or borrows them (view constructors — zero-copy reads out
/// of a pooled SendBuffer that stays alive for the duration of the read).
class RecvBuffer {
 public:
  explicit RecvBuffer(std::vector<std::uint8_t> bytes)
      : owned_(std::move(bytes)), data_(owned_.data()), size_(owned_.size()) {}

  /// Non-owning view; `data` must outlive the RecvBuffer.
  RecvBuffer(const std::uint8_t* data, std::size_t n) : data_(data), size_(n) {}

  /// Non-owning view over a SendBuffer's current contents.
  explicit RecvBuffer(const SendBuffer& buf)
      : data_(buf.bytes().data()), size_(buf.bytes().size()) {}

  // Copying/moving would dangle data_ in the owned case; readers are
  // constructed in place and passed by reference.
  RecvBuffer(const RecvBuffer&) = delete;
  RecvBuffer& operator=(const RecvBuffer&) = delete;

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>, "read requires a POD type");
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Divide instead of multiplying: `n * sizeof(T)` wraps for a corrupted
    // huge length prefix, sailing past the truncation guard and into a
    // multi-exabyte allocation.
    if (n > remaining() / sizeof(T)) {
      throw std::out_of_range("RecvBuffer: truncated message (vector length " + std::to_string(n) +
                              " exceeds " + std::to_string(remaining()) + " remaining bytes)");
    }
    std::vector<T> values(n);
    if (n > 0) {
      std::memcpy(values.data(), data_ + cursor_, n * sizeof(T));
      cursor_ += n * sizeof(T);
    }
    return values;
  }

  /// Mirror of write_array: reads a write_vector-framed array into an
  /// existing span of exactly `count` elements. A length-prefix mismatch is
  /// a corrupted or foreign snapshot, reported like a truncation.
  template <typename T>
  void read_array(T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>, "read_array requires POD elements");
    const auto n = read<std::uint64_t>();
    if (n != count) {
      throw std::out_of_range("RecvBuffer: array length " + std::to_string(n) +
                              " does not match expected " + std::to_string(count));
    }
    require(count * sizeof(T));
    if (count > 0) {
      std::memcpy(values, data_ + cursor_, count * sizeof(T));
      cursor_ += count * sizeof(T);
    }
  }

  /// Reads one LEB128 varint; throws std::out_of_range on truncation or an
  /// over-long / over-wide encoding (corrupted frame).
  std::uint64_t read_varint() { return decode_varint(data_, size_, cursor_); }

  /// Copies `n` raw bytes (no length prefix) into `out` — the mirror of
  /// SendBuffer::write_raw / write_encoded.
  void read_raw(void* out, std::size_t n) {
    require(n);
    if (n > 0) std::memcpy(out, data_ + cursor_, n);
    cursor_ += n;
  }

  /// Mirror of SendBuffer::extend: checks that `n` bytes remain, skips
  /// them and returns where they start (valid while the bytes live).
  const std::uint8_t* consume(std::size_t n) {
    require(n);
    const std::uint8_t* p = data_ + cursor_;
    cursor_ += n;
    return p;
  }

  DynamicBitset read_bitset();
  std::string read_string();

  bool exhausted() const { return cursor_ >= size_; }
  std::size_t remaining() const { return size_ - cursor_; }
  std::size_t size() const { return size_; }

 private:
  /// Truncated or corrupted buffers must fail loudly, not read past the
  /// end: a real transport surfaces these as deserialization errors.
  void require(std::size_t bytes) const {
    if (bytes > remaining()) {
      throw std::out_of_range("RecvBuffer: truncated message (need " + std::to_string(bytes) +
                              " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::vector<std::uint8_t> owned_;  ///< empty when viewing foreign bytes
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;
};

/// CRC-32 (ISO-HDLC / zlib: reflected, polynomial 0xEDB88320, init and
/// final xor 0xFFFFFFFF). Used by the reliable-delivery layer to detect
/// payload corruption on the simulated wire and by the snapshot container
/// to frame every section on disk. Pass a previous checksum as `seed` to
/// continue over split buffers.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace mrbc::util
