#include "core/mrbc_state.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/staged_drain.h"
#include "util/thread_pool.h"

namespace mrbc::core {

namespace {

/// L_v row key: lexicographic (dist, source) order is u64 order.
constexpr std::uint64_t entry_key(std::uint32_t dist, std::uint32_t sidx) {
  return (std::uint64_t{dist} << 32) | sidx;
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
  buf.write<std::uint64_t>(slots_.size());
  std::uint8_t* out = buf.extend(slots_.size() * kPackedSlotBytes);
  for (const SourceSlot& s : slots_) {
    std::memcpy(out, &s.dist, sizeof s.dist);
    std::memcpy(out + 4, &s.sigma, sizeof s.sigma);
    std::memcpy(out + 12, &s.delta, sizeof s.delta);
    out += kPackedSlotBytes;
  }
  for (VertexId lid = 0; lid < num_proxies_; ++lid) buf.write_vector(dirty_[lid]);
  buf.write_array(fwd_sent.data(), fwd_sent.size());
  buf.write_array(acc_sent.data(), acc_sent.size());
  // std::pair is not guaranteed trivially copyable; serialize elementwise.
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    buf.write<std::uint64_t>(to_broadcast[lid].size());
    for (const auto& [sidx, is_final] : to_broadcast[lid]) {
      buf.write<std::uint32_t>(sidx);
      buf.write<std::uint8_t>(is_final ? 1 : 0);
    }
  }
}

void HostState::restore(util::RecvBuffer& buf) {
  const auto k = buf.read<std::uint32_t>();
  const auto np = buf.read<VertexId>();
  // Against is_master_, not num_proxies_: a moved-from state has lost its
  // proxies (and its arena) and restores nothing.
  if (k != k_ || np != is_master_.size()) {
    throw std::out_of_range("HostState: labels for " + std::to_string(np) + " proxies x " +
                            std::to_string(k) + " sources, expected " +
                            std::to_string(is_master_.size()) + " x " + std::to_string(k_));
  }
  const auto num_slots = buf.read<std::uint64_t>();
  if (num_slots != slots_.size()) {
    throw std::out_of_range("HostState: slot count " + std::to_string(num_slots) +
                            " does not match expected " + std::to_string(slots_.size()));
  }
  auto check_source = [&](std::uint32_t sidx, const char* what) {
    if (sidx >= k_) {
      throw std::out_of_range(std::string("HostState: ") + what + " " + std::to_string(sidx) +
                              " out of range for " + std::to_string(k_) + " sources");
    }
  };
  const std::uint8_t* in = buf.consume(slots_.size() * kPackedSlotBytes);
  for (SourceSlot& s : slots_) {
    std::memcpy(&s.dist, in, sizeof s.dist);
    std::memcpy(&s.sigma, in + 4, sizeof s.sigma);
    std::memcpy(&s.delta, in + 12, sizeof s.delta);
    in += kPackedSlotBytes;
  }
  dirty_.assign(num_proxies_, {});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    dirty_[lid] = buf.read_vector<std::uint32_t>();
    for (std::uint32_t sidx : dirty_[lid]) check_source(sidx, "dirty source");
  }
  buf.read_array(fwd_sent.data(), fwd_sent.size());
  buf.read_array(acc_sent.data(), acc_sent.size());
  to_broadcast.assign(num_proxies_, {});
  for (VertexId lid = 0; lid < num_proxies_; ++lid) {
    const auto n = buf.read<std::uint64_t>();
    to_broadcast[lid].reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto sidx = buf.read<std::uint32_t>();
      check_source(sidx, "staged source");
      const bool is_final = buf.read<std::uint8_t>() != 0;
      to_broadcast[lid].emplace_back(sidx, is_final);
    }
  }
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
