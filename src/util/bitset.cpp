#include "util/bitset.h"

#include <algorithm>
#include <cassert>

namespace mrbc::util {

namespace bitwords {

std::size_t find_nonzero(const Word* w, std::size_t n, std::size_t from) {
  for (std::size_t i = from; i < n; ++i) {
    if (w[i] != 0) return i;
  }
  return n;
}

}  // namespace bitwords

void DynamicBitset::resize(std::size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + kBitsPerWord - 1) / kBitsPerWord, 0);
  clear_padding();
}

void DynamicBitset::set(std::size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kBitsPerWord] |= Word{1} << (pos % kBitsPerWord);
}

void DynamicBitset::reset(std::size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kBitsPerWord] &= ~(Word{1} << (pos % kBitsPerWord));
}

void DynamicBitset::reset_all() { std::fill(words_.begin(), words_.end(), 0); }

void DynamicBitset::set_all() {
  std::fill(words_.begin(), words_.end(), ~Word{0});
  clear_padding();
}

bool DynamicBitset::test(std::size_t pos) const {
  assert(pos < num_bits_);
  return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1u;
}

std::size_t DynamicBitset::count() const {
  std::size_t total = 0;
  for (const Word w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
  return total;
}

bool DynamicBitset::any() const {
  return bitwords::find_nonzero(words_.data(), words_.size(), 0) < words_.size();
}

std::size_t DynamicBitset::find_first_from(std::size_t pos) const {
  if (pos >= num_bits_) return npos;
  std::size_t w = pos / kBitsPerWord;
  Word word = words_[w] & (~Word{0} << (pos % kBitsPerWord));
  while (true) {
    if (word != 0) {
      const std::size_t bit = w * kBitsPerWord + static_cast<unsigned>(__builtin_ctzll(word));
      return bit < num_bits_ ? bit : npos;
    }
    w = bitwords::find_nonzero(words_.data(), words_.size(), w + 1);
    if (w >= words_.size()) return npos;
    word = words_[w];
  }
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

void DynamicBitset::clear_padding() {
  const std::size_t tail = num_bits_ % kBitsPerWord;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

}  // namespace mrbc::util
