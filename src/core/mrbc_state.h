#pragma once
// Per-host MRBC labels using the data-structure layout of Section 4.3:
//   A_v — a dense array of per-source structs {dist, sigma, delta} giving
//         O(1) access by (vertex, source); the three fields share one
//         struct for spatial locality, exactly as the paper describes.
//   L_v — the list of finite (dist, source) pairs in lexicographic order
//         (Algorithm 3), kept as one sorted row of k u64 keys
//         (dist << 32 | source) per vertex, of which the first
//         entry_count(lid) are live. The paper's flat map from distance to
//         a source bitvector serves the same two queries; the row answers
//         them directly: the idx-th entry is row[idx], and the rank l_v(d, s)
//         that fixes an entry's pipelined send round is a binary search.
//         A distance change is a binary search plus one memmove within the
//         row. The rows are derived from A_v and never serialized. Only
//         masters schedule sends, so only masters keep a row, indexed by
//         master ordinal: a mirror's distance lives in its slot alone and
//         its entry_count stays 0.
//
// Everything the per-round drains touch per vertex — the slot row, the
// L_v row, the pipelining cursors, the entry count, and the dirty-flag
// words — lives in ONE flat arena allocation (util/arena.h), lid-major,
// instead of a per-vertex constellation of heap vectors/bitsets. The
// staged replay walks target lids in ascending order within 64-lid
// ranges, so the physical memory order now matches the access order, and
// the arena pages are first-touched through the thread pool with the same
// chunk deal the replay uses (see the locality contract in
// util/thread_pool.h).

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/serialize.h"

namespace mrbc::core {

using graph::VertexId;

/// One (vertex, source) label cell of the dense array A_v.
struct SourceSlot {
  std::uint32_t dist = graph::kInfDist;
  double sigma = 0.0;
  double delta = 0.0;
};

/// All MRBC labels of one simulated host for a batch of k sources.
/// Move-only: the arena owns the backing block, the spans point into it.
class HostState {
 public:
  using Word = util::bitwords::Word;

  /// Labels for one proxy per `is_master` entry (HostGraph::is_master),
  /// for `num_sources` sources.
  HostState(std::vector<bool> is_master, std::uint32_t num_sources);
  HostState(HostState&&) noexcept = default;
  HostState& operator=(HostState&&) noexcept = default;

  std::uint32_t num_sources() const { return k_; }
  VertexId num_proxies() const { return num_proxies_; }

  SourceSlot& slot(VertexId lid, std::uint32_t sidx) {
    return slots_[static_cast<std::size_t>(lid) * k_ + sidx];
  }
  const SourceSlot& slot(VertexId lid, std::uint32_t sidx) const {
    return slots_[static_cast<std::size_t>(lid) * k_ + sidx];
  }

  // --- L_v maintenance --------------------------------------------------
  // update_distance keeps slot.dist and a master's row consistent: pass the
  // new distance; the old one is read from the slot. On a mirror it writes
  // the slot only.
  void update_distance(VertexId lid, std::uint32_t sidx, std::uint32_t new_dist);

  /// Number of (dist, source) entries of master `lid` (|L_v|); 0 on a
  /// mirror.
  std::size_t entry_count(VertexId lid) const { return entry_counts_[lid]; }

  /// idx-th (0-based) entry of L_v in lexicographic (dist, source) order.
  std::pair<std::uint32_t, std::uint32_t> nth_entry(VertexId lid, std::size_t idx) const {
    assert(idx < entry_counts_[lid]);
    const std::uint64_t key = keys_[row_start(lid) + idx];
    return {static_cast<std::uint32_t>(key >> 32), static_cast<std::uint32_t>(key)};
  }

  /// 1-based lexicographic position of (dist, sidx) in L_v — the paper's
  /// l_v(d, s). The entry must exist.
  std::size_t position(VertexId lid, std::uint32_t dist, std::uint32_t sidx) const;

  // --- Update tracking for reduce ---------------------------------------
  /// Marks (lid, sidx) as having a pending contribution for the master;
  /// idempotent. Returns true if newly marked.
  bool mark_dirty(VertexId lid, std::uint32_t sidx);
  std::vector<std::uint32_t>& dirty_sources(VertexId lid) { return dirty_[lid]; }
  void clear_dirty(VertexId lid);

  // --- Per-vertex pipelining cursors -------------------------------------
  // Forward phase: number of leading L_v entries already broadcast.
  std::span<std::uint32_t> fwd_sent;
  // Accumulation phase: number of trailing entries already fired.
  std::span<std::uint32_t> acc_sent;
  // Broadcast staging: (sidx, is_final) pairs serialized at the next
  // broadcast; non-final entries model eager synchronization traffic for
  // the delayed-sync ablation.
  std::vector<std::vector<std::pair<std::uint32_t, bool>>> to_broadcast;

  // --- Checkpointing ------------------------------------------------------
  // Serializes / restores the complete label state for crash recovery.
  // The L_v rows and entry counts are derivable from A_v, so only the slots
  // and round-local cursors/queues go on the wire; restore() rebuilds each
  // master's row by sorting its lid's finite slots. restore() throws
  // std::out_of_range when the buffer's (proxies, sources) shape differs
  // from this state's, or a source index or cursor in it lies outside the
  // label state it describes (a mirror has no entries, so any nonzero
  // cursor on one).
  // The slot plane is a u64 count followed by kPackedSlotBytes per slot
  // (dist u32, sigma f64, delta f64, no padding), so equal label states
  // always serialize to equal bytes: SourceSlot's in-memory padding is
  // uninitialized arena memory and never reaches the wire.
  static constexpr std::size_t kPackedSlotBytes =
      sizeof(std::uint32_t) + 2 * sizeof(double);
  /// Revision of the save() byte layout; durable snapshot fingerprints
  /// include it so a file in an older layout is rejected, not misparsed.
  /// 1 was the padded 24-byte slot; 2 is the packed 20-byte slot.
  static constexpr std::uint32_t kWireLayout = 2;
  void save(util::SendBuffer& buf) const;
  void restore(util::RecvBuffer& buf);

 private:
  /// Carves the arena into the lid-major spans for the current (np, k).
  void layout();
  /// Zero/identity-fills the arena through the pool's 64-lid chunk deal —
  /// the same decomposition the staged replay ranges use, so pages are
  /// first-touched by the worker whose ranges live in them.
  void first_touch_init();
  /// Offset of master `lid`'s L_v row in keys_: rows are indexed by master
  /// ordinal.
  std::size_t row_start(std::size_t lid) const { return std::size_t{masters_before_[lid]} * k_; }

  std::vector<bool> is_master_;
  VertexId num_proxies_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t kw_ = 0;  ///< ceil(k / 64): words per lid in dirty_words_
  util::Arena arena_;
  std::span<SourceSlot> slots_;
  std::span<std::uint64_t> keys_;  ///< masters x k L_v rows, sorted, entry_count live
  std::span<std::uint32_t> masters_before_;  ///< np + 1: masters below each lid
  std::span<std::size_t> entry_counts_;
  std::span<Word> dirty_words_;  ///< np x kw_ idempotency bits for mark_dirty
  std::vector<std::vector<std::uint32_t>> dirty_;
};

}  // namespace mrbc::core
