#include "core/mrbc_state.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "comm/codec.h"
#include "core/staged_drain.h"
#include "util/thread_pool.h"

namespace mrbc::core {

namespace {

/// L_v row key: lexicographic (dist, source) order is u64 order.
constexpr std::uint64_t entry_key(std::uint32_t dist, std::uint32_t sidx) {
  return (std::uint64_t{dist} << 32) | sidx;
}

// Checkpoint cell record (layout 3): the tag byte carries the status bits
// and says which label fields follow it.
constexpr std::uint8_t kTagDist = 1u << 3;   ///< finite distance: a varint follows
constexpr std::uint8_t kTagSigma = 1u << 4;  ///< sigma bits nonzero: a tagged f64 follows
constexpr std::uint8_t kTagDelta = 1u << 5;  ///< delta bits nonzero: a tagged f64 follows
static_assert((SourceSlot::kStatusBits & (kTagDist | kTagSigma | kTagDelta)) == 0);
constexpr std::uint8_t kTagBits = SourceSlot::kStatusBits | kTagDist | kTagSigma | kTagDelta;
/// A u32 varint takes at most 5 bytes.
constexpr std::size_t kMaxU32VarintBytes = 5;
/// Longest cell record: the tag, a distance and two tagged doubles.
constexpr std::size_t kMaxCellBytes = 1 + kMaxU32VarintBytes + 2 * comm::kMaxTaggedF64Bytes;

bool nonzero_bits(double v) { return std::bit_cast<std::uint64_t>(v) != 0; }

std::uint8_t* encode_cell(const SourceSlot& s, std::uint8_t* out) {
  assert((s.status & ~SourceSlot::kStatusBits) == 0);
  std::uint8_t* tag = out++;
  std::uint8_t bits = s.status;
  if (s.dist != graph::kInfDist) {
    bits |= kTagDist;
    out += util::encode_varint(s.dist, out);
  }
  if (nonzero_bits(s.sigma)) {
    bits |= kTagSigma;
    out += comm::encode_tagged_f64(s.sigma, out);
  }
  if (nonzero_bits(s.delta)) {
    bits |= kTagDelta;
    out += comm::encode_tagged_f64(s.delta, out);
  }
  *tag = bits;
  return out;
}

/// Writes the nonempty lists among `lists` (one per lid): a varint count,
/// then per list the varint gap from the previous list's lid + 1, a varint
/// length and one varint `code(entry)` per entry.
template <typename List, typename Code>
void write_sparse_lists(util::SendBuffer& buf, const std::vector<List>& lists, Code code) {
  const auto nonempty = std::count_if(lists.begin(), lists.end(),
                                      [](const List& list) { return !list.empty(); });
  buf.write_varint(static_cast<std::uint64_t>(nonempty), sizeof(std::uint64_t));
  std::size_t next = 0;
  for (std::size_t lid = 0; lid < lists.size(); ++lid) {
    if (lists[lid].empty()) continue;
    buf.write_varint(lid - next, sizeof(VertexId));
    buf.write_varint(lists[lid].size(), sizeof(std::uint64_t));
    for (const auto& entry : lists[lid]) buf.write_varint(code(entry), sizeof(std::uint32_t));
    next = lid + 1;
  }
}

/// Mirror of write_sparse_lists over `np` lids: calls add(lid, code) per
/// entry, in order. A lid at or past `np` throws std::out_of_range.
template <typename Add>
void read_sparse_lists(util::RecvBuffer& buf, std::size_t np, const char* what, Add add) {
  const std::uint64_t lists = buf.read_varint();
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < lists; ++i) {
    const std::uint64_t gap = buf.read_varint();
    if (gap >= np - next) {
      throw std::out_of_range(std::string("HostState: ") + what + " list " + std::to_string(i) +
                              " lies past the " + std::to_string(np) + " proxies");
    }
    const auto lid = static_cast<VertexId>(next + gap);
    next = lid + std::uint64_t{1};
    const std::uint64_t n = buf.read_varint();
    for (std::uint64_t j = 0; j < n; ++j) add(lid, buf.read_varint());
  }
}

}  // namespace

HostState::HostState(std::vector<bool> is_master, std::uint32_t num_sources)
    : is_master_(std::move(is_master)),
      num_proxies_(static_cast<VertexId>(is_master_.size())),
      k_(num_sources) {
  layout();
  first_touch_init();
  dirty_.resize(num_proxies_);
  to_broadcast.resize(num_proxies_);
}

void HostState::layout() {
  const std::size_t np = num_proxies_;
  const auto nm = static_cast<std::size_t>(std::count(is_master_.begin(), is_master_.end(), true));
  kw_ = (k_ + 63) / 64;
  using util::Arena;
  arena_.reserve(Arena::bytes_for<SourceSlot>(np * k_) + Arena::bytes_for<std::uint64_t>(nm * k_) +
                 Arena::bytes_for<std::uint32_t>(np + 1) + Arena::bytes_for<std::size_t>(np) +
                 2 * Arena::bytes_for<std::uint32_t>(np) + Arena::bytes_for<Word>(np * kw_));
  slots_ = arena_.alloc<SourceSlot>(np * k_);
  keys_ = arena_.alloc<std::uint64_t>(nm * k_);
  masters_before_ = arena_.alloc<std::uint32_t>(np + 1);
  entry_counts_ = arena_.alloc<std::size_t>(np);
  fwd_sent = arena_.alloc<std::uint32_t>(np);
  acc_sent = arena_.alloc<std::uint32_t>(np);
  dirty_words_ = arena_.alloc<Word>(np * kw_);
  std::uint32_t masters = 0;
  for (std::size_t lid = 0; lid < np; ++lid) {
    masters_before_[lid] = masters;
    masters += is_master_[lid] ? 1 : 0;
  }
  masters_before_[np] = masters;
}

void HostState::first_touch_init() {
  // 64-lid chunks: the exact decomposition the staged replay buckets by
  // (kRangeShift), so under the pool's stable deal each worker faults in
  // the arena pages its replay ranges will re-touch every round. The key
  // rows of lids [b, e) are the rows of the masters among them.
  const std::size_t grain = std::size_t{1} << kRangeShift;
  util::ThreadPool::global().parallel_for_chunks(
      0, static_cast<std::size_t>(num_proxies_), grain,
      [&](std::size_t, std::size_t b, std::size_t e) {
        std::fill(slots_.begin() + b * k_, slots_.begin() + e * k_, SourceSlot{});
        std::fill(keys_.begin() + row_start(b), keys_.begin() + row_start(e), std::uint64_t{0});
        std::fill(entry_counts_.begin() + b, entry_counts_.begin() + e, std::size_t{0});
        std::fill(fwd_sent.begin() + b, fwd_sent.begin() + e, 0u);
        std::fill(acc_sent.begin() + b, acc_sent.begin() + e, 0u);
        std::fill(dirty_words_.begin() + b * kw_, dirty_words_.begin() + e * kw_, Word{0});
      });
}

void HostState::update_distance(VertexId lid, std::uint32_t sidx, std::uint32_t new_dist) {
  SourceSlot& s = slot(lid, sidx);
  if (!is_master_[lid]) {
    s.dist = new_dist;
    return;
  }
  std::uint64_t* row = keys_.data() + row_start(lid);
  std::uint64_t* end = row + entry_counts_[lid];
  const std::uint64_t key = entry_key(new_dist, sidx);
  if (s.dist == graph::kInfDist) {
    std::uint64_t* at = std::lower_bound(row, end, key);
    std::copy_backward(at, end, end + 1);
    *at = key;
    ++entry_counts_[lid];
  } else {
    if (s.dist == new_dist) return;
    // Move the entry from its old position to the new one: one shift of
    // the keys between them.
    std::uint64_t* old = std::lower_bound(row, end, entry_key(s.dist, sidx));
    assert(old != end && *old == entry_key(s.dist, sidx));
    if (key < *old) {
      std::uint64_t* at = std::lower_bound(row, old, key);
      std::copy_backward(at, old, old + 1);
      *at = key;
    } else {
      std::uint64_t* at = std::lower_bound(old + 1, end, key);
      std::copy(old + 1, at, old);
      *(at - 1) = key;
    }
  }
  s.dist = new_dist;
}

std::size_t HostState::position(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const {
  const std::uint64_t* row = keys_.data() + row_start(lid);
  const std::uint64_t* at = std::lower_bound(row, row + entry_counts_[lid], entry_key(dist, sidx));
  assert(at != row + entry_counts_[lid] && *at == entry_key(dist, sidx));
  return static_cast<std::size_t>(at - row) + 1;  // 1-based
}

bool HostState::mark_dirty(VertexId lid, std::uint32_t sidx) {
  Word& w = dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64];
  const Word bit = Word{1} << (sidx % 64);
  if (w & bit) return false;
  w |= bit;
  dirty_[lid].push_back(sidx);
  return true;
}

void HostState::clear_dirty(VertexId lid) {
  for (std::uint32_t sidx : dirty_[lid]) {
    dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64] &= ~(Word{1} << (sidx % 64));
  }
  dirty_[lid].clear();
}

void HostState::save(util::SendBuffer& buf) const {
  buf.write<std::uint32_t>(k_);
  buf.write<VertexId>(num_proxies_);
  for (std::size_t lid = 0; lid < num_proxies_; ++lid) {
    buf.encode(k_ * kMaxCellBytes, [&](std::uint8_t* out) {
      for (const SourceSlot& s : slots_.subspan(lid * k_, k_)) out = encode_cell(s, out);
      return out;
    });
  }
  write_sparse_lists(buf, dirty_, [](std::uint32_t sidx) { return sidx; });
  for (const std::span<std::uint32_t> cursors : {fwd_sent, acc_sent}) {
    buf.encode(cursors.size() * kMaxU32VarintBytes, [&](std::uint8_t* out) {
      for (std::uint32_t c : cursors) out += util::encode_varint(c, out);
      return out;
    });
  }
  write_sparse_lists(buf, to_broadcast, [](const std::pair<std::uint32_t, bool>& staged) {
    return (std::uint64_t{staged.first} << 1) | (staged.second ? 1u : 0u);
  });
}

void HostState::restore(util::RecvBuffer& buf) {
  const auto k = buf.read<std::uint32_t>();
  const auto np = buf.read<VertexId>();
  // Against is_master_ too: a moved-from state has lost its proxies (and
  // its arena) and restores nothing.
  if (k != k_ || np != num_proxies_ || np != is_master_.size()) {
    throw std::out_of_range("HostState: labels for " + std::to_string(np) + " proxies x " +
                            std::to_string(k) + " sources, expected " +
                            std::to_string(is_master_.size()) + " x " + std::to_string(k_));
  }
  auto check_source = [&](std::uint64_t sidx, const char* what) {
    if (sidx >= k_) {
      throw std::out_of_range(std::string("HostState: ") + what + " " + std::to_string(sidx) +
                              " out of range for " + std::to_string(k_) + " sources");
    }
    return static_cast<std::uint32_t>(sidx);
  };
  buf.decode([&](const std::uint8_t* data, std::size_t size, std::size_t& at) {
    for (std::size_t cell = 0; cell < slots_.size(); ++cell) {
      if (at >= size) throw std::out_of_range("HostState: truncated cell records");
      const std::uint8_t tag = data[at++];
      if ((tag & ~kTagBits) != 0) {
        throw std::out_of_range("HostState: cell (lid " + std::to_string(cell / k_) +
                                ", source " + std::to_string(cell % k_) + ") tag " +
                                std::to_string(tag) + " has undefined bits");
      }
      SourceSlot& s = slots_[cell];
      s.status = tag & SourceSlot::kStatusBits;
      s.dist = graph::kInfDist;
      if (tag & kTagDist) {
        const std::uint64_t d = util::decode_varint(data, size, at);
        if (d >= graph::kInfDist) {
          throw std::out_of_range("HostState: finite distance " + std::to_string(d) +
                                  " out of range");
        }
        s.dist = static_cast<std::uint32_t>(d);
      }
      s.sigma = (tag & kTagSigma) ? comm::decode_tagged_f64(data, size, at) : 0.0;
      s.delta = (tag & kTagDelta) ? comm::decode_tagged_f64(data, size, at) : 0.0;
    }
  });
  dirty_.assign(num_proxies_, {});
  read_sparse_lists(buf, num_proxies_, "dirty", [&](VertexId lid, std::uint64_t sidx) {
    dirty_[lid].push_back(check_source(sidx, "dirty source"));
  });
  for (const std::span<std::uint32_t> cursors : {fwd_sent, acc_sent}) {
    for (std::uint32_t& c : cursors) {
      // A lid has at most k entries; the entry-count check below is exact.
      const std::uint64_t sent = buf.read_varint();
      if (sent > k_) {
        throw std::out_of_range("HostState: pipelining cursor " + std::to_string(sent) +
                                " exceeds " + std::to_string(k_) + " sources");
      }
      c = static_cast<std::uint32_t>(sent);
    }
  }
  to_broadcast.assign(num_proxies_, {});
  read_sparse_lists(buf, num_proxies_, "staging", [&](VertexId lid, std::uint64_t code) {
    to_broadcast[lid].emplace_back(check_source(code >> 1, "staged source"), (code & 1u) != 0);
  });
  // Rebuild the derived structures: the masters' L_v rows and every entry
  // count from A_v, the dirty word plane from the dirty lists.
  std::fill(dirty_words_.begin(), dirty_words_.end(), Word{0});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    std::size_t n = 0;
    if (is_master_[lid]) {
      std::uint64_t* row = keys_.data() + row_start(lid);
      for (std::uint32_t sidx = 0; sidx < k_; ++sidx) {
        const std::uint32_t d = slot(lid, sidx).dist;
        if (d != graph::kInfDist) row[n++] = entry_key(d, sidx);
      }
      std::sort(row, row + n);
    }
    entry_counts_[lid] = n;
    if (fwd_sent[lid] > n || acc_sent[lid] > n) {
      throw std::out_of_range("HostState: " + std::string(is_master_[lid] ? "master" : "mirror") +
                              " lid " + std::to_string(lid) + " has " + std::to_string(n) +
                              " entries but cursors " + std::to_string(fwd_sent[lid]) + "/" +
                              std::to_string(acc_sent[lid]));
    }
    for (std::uint32_t sidx : dirty_[lid]) {
      dirty_words_[static_cast<std::size_t>(lid) * kw_ + sidx / 64] |= Word{1} << (sidx % 64);
    }
  }
}

}  // namespace mrbc::core
