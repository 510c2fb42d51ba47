#pragma once
// Dynamic bitset used throughout the system: update-tracking flags and
// per-list presence marks in the Gluon-like communication substrate, MRBC's
// per-host set of masters with unsent entries, and SBBC's frontier
// membership.
//
// The set-bit scans (for_each_set_bit, any, find_first_from) skip zero
// words with bitwords::find_nonzero. Their callers are the substrate's flag
// and presence sets and MRBC's pending masters; SBBC's frontier bitsets are
// only set, tested and reset.

#include <cstdint>
#include <cstddef>
#include <vector>

namespace mrbc::util {

namespace bitwords {

using Word = std::uint64_t;

/// Smallest i in [from, n) with w[i] != 0, or n when all remaining words
/// are zero — the zero-word skip of the set-bit scans.
std::size_t find_nonzero(const Word* w, std::size_t n, std::size_t from);

}  // namespace bitwords

/// A fixed-capacity-after-resize dynamic bitset with word-level operations
/// and fast set-bit iteration. All indices are bit positions in [0, size()).
class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kBitsPerWord = 64;

  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t num_bits) { resize(num_bits); }

  /// Resizes to hold `num_bits` bits; newly exposed bits are zero.
  void resize(std::size_t num_bits);

  std::size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  void set(std::size_t pos);
  void reset(std::size_t pos);
  /// Sets all bits to zero without changing the size.
  void reset_all();
  /// Sets all bits in [0, size()) to one.
  void set_all();
  bool test(std::size_t pos) const;

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Index of the lowest set bit at or after `pos`, or npos if none.
  std::size_t find_first_from(std::size_t pos) const;
  std::size_t find_first() const { return find_first_from(0); }

  /// Invokes `fn(std::size_t bit)` for every set bit in ascending order,
  /// skipping runs of zero words — sparse flag sets, such as the
  /// substrate's presence marks or late rounds' pending masters, are mostly
  /// zero words.
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const {
    const Word* w = words_.data();
    const std::size_t n = words_.size();
    for (std::size_t i = bitwords::find_nonzero(w, n, 0); i < n;
         i = bitwords::find_nonzero(w, n, i + 1)) {
      Word word = w[i];
      while (word != 0) {
        const unsigned tz = static_cast<unsigned>(__builtin_ctzll(word));
        fn(i * kBitsPerWord + tz);
        word &= word - 1;
      }
    }
  }

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  bool operator==(const DynamicBitset& other) const;

  const std::vector<Word>& words() const { return words_; }
  std::vector<Word>& words() { return words_; }

  /// Bytes required to transmit this bitset verbatim (metadata compression
  /// in the communication substrate accounts for this).
  std::size_t byte_size() const { return words_.size() * sizeof(Word); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  void clear_padding();

  std::vector<Word> words_;
  std::size_t num_bits_ = 0;
};

}  // namespace mrbc::util
