#pragma once
// Shared machinery for the deterministic two-phase parallel worklist drain
// used by the MRBC and SBBC compute kernels (see the design comment in
// core/mrbc.cpp). Phase A records each drained entry's neighbor pushes into
// per-chunk buffers bucketed by the target lid's 64-aligned range; Phase B
// replays every range's pushes in (chunk index, in-chunk order) — the exact
// sequential push order — with ranges running concurrently because they are
// disjoint in everything a push mutates.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/bc_common.h"
#include "graph/graph.h"
#include "util/thread_pool.h"

namespace mrbc::core {

/// 64 lids per replay range: one DynamicBitset word, so concurrent ranges
/// never share a substrate flag word.
constexpr std::uint32_t kRangeShift = 6;

inline std::size_t num_drain_ranges(std::size_t num_proxies) {
  return (num_proxies + (std::size_t{1} << kRangeShift) - 1) >> kRangeShift;
}

/// One recorded neighbor push awaiting ordered replay.
struct PushRec {
  graph::VertexId target = 0;
  std::uint32_t sidx = 0;   ///< source index (MRBC); unused by SBBC
  std::uint32_t dist = 0;   ///< forward phase only
  double value = 0;         ///< sigma (forward) / contribution (backward)
  std::uint32_t ord = 0;    ///< in-chunk sequential push index
};

/// Phase-A output of one entry chunk: pushes counting-sorted (stably) into
/// contiguous per-range segments. Instances are pooled in a DrainScratch and
/// reused round after round — bucket_by_range recycles every internal buffer.
struct ChunkRecs {
  std::vector<PushRec> sorted;
  std::vector<std::uint32_t> starts;  ///< num_ranges + 1 offsets into sorted
  std::uint64_t work_items = 0;

  void bucket_by_range(const std::vector<PushRec>& recs, std::size_t num_ranges) {
    starts.assign(num_ranges + 1, 0);
    for (const PushRec& r : recs) ++starts[(r.target >> kRangeShift) + 1];
    for (std::size_t i = 1; i <= num_ranges; ++i) starts[i] += starts[i - 1];
    sorted.resize(recs.size());
    cursor_.assign(starts.begin(), starts.end() - 1);
    for (const PushRec& r : recs) sorted[cursor_[r.target >> kRangeShift]++] = r;
  }

 private:
  std::vector<std::uint32_t> cursor_;  ///< scratch for the counting sort
};

/// Per-host reusable buffers for the staged drains. The per-round record
/// traffic (one PushRec per edge relaxation) previously churned fresh
/// vectors every round; pooling them keeps the allocations warm across the
/// whole phase. Capacities only grow; clear() is what resets contents.
struct DrainScratch {
  std::vector<ChunkRecs> chunks;             ///< Phase-A output, per entry chunk
  std::vector<std::vector<PushRec>> raw;     ///< Phase-A record buffer, per chunk
  std::vector<std::vector<PushRec>> range_recs;  ///< SBBC pull-mode buffer, per range
  /// MRBC pull-mode buffer, per range: packed (drain ordinal << 32 | target)
  /// keys. The full record is reconstructed at replay time — the frontier
  /// slots a pull reads are frozen for the whole fused pass, so deferring
  /// the (dist, sigma) loads is exact and the sort works on bare u64s.
  std::vector<std::vector<std::uint64_t>> range_keys;
};

/// Side-list append captured during replay: (global push ordinal, lid).
/// Sorting by ordinal reconstructs the exact sequential append order.
using OrdLid = std::pair<std::uint64_t, graph::VertexId>;

/// Global ordinal of in-chunk push `ord` in chunk `c`: chunk-major order.
inline std::uint64_t push_ordinal(std::size_t c, std::uint32_t ord) {
  return (static_cast<std::uint64_t>(c) << 32) | ord;
}

/// One two-phase staged drain of `total` entries; returns the summed work
/// items. Phase A cuts the entries into grain-sized chunks (thread-count
/// independent) and calls snapshot(chunk, recs, entry_index) per entry: it
/// appends the entry's pushes to recs and counts chunk.work_items. Phase B
/// calls replay(range, push, push_ordinal) for each range's pushes in
/// sequential push order, ranges concurrently. Buffers are pooled in `sc`.
template <typename SnapshotFn, typename ReplayFn>
std::uint64_t staged_drain(DrainScratch& sc, std::size_t total, std::size_t grain,
                           std::size_t num_ranges, SnapshotFn&& snapshot, ReplayFn&& replay) {
  const std::size_t n = util::ThreadPool::chunk_count(total, grain);
  if (sc.chunks.size() < n) sc.chunks.resize(n);
  if (sc.raw.size() < n) sc.raw.resize(n);
  util::ThreadPool::global().parallel_for_chunks(
      0, total, grain, [&](std::size_t c, std::size_t b, std::size_t e) {
        ChunkRecs& ch = sc.chunks[c];
        ch.work_items = 0;
        std::vector<PushRec>& recs = sc.raw[c];
        recs.clear();
        for (std::size_t ei = b; ei < e; ++ei) snapshot(ch, recs, ei);
        ch.bucket_by_range(recs, num_ranges);
      });
  util::ThreadPool::global().parallel_for(0, num_ranges, 1, [&](std::size_t r) {
    for (std::size_t c = 0; c < n; ++c) {
      const ChunkRecs& ch = sc.chunks[c];
      for (std::uint32_t i = ch.starts[r]; i < ch.starts[r + 1]; ++i) {
        replay(r, ch.sorted[i], push_ordinal(c, ch.sorted[i].ord));
      }
    }
  });
  std::uint64_t work_items = 0;
  for (std::size_t c = 0; c < n; ++c) work_items += sc.chunks[c].work_items;
  return work_items;
}

/// Appends the lids of per-range side lists to `out` in push-ordinal order:
/// the order the sequential drain would have appended them.
inline void merge_side_lists(const std::vector<std::vector<OrdLid>>& ranges,
                             std::vector<graph::VertexId>& out) {
  std::vector<OrdLid> all;
  for (const auto& v : ranges) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (const auto& [ord, lid] : all) out.push_back(lid);
}

/// Direction of one staged forward round (EngineOptions::direction), shared
/// by MRBC and SBBC. Returns the frontier's out-degree sum when the round
/// pulls, nullopt when it pushes. kAuto is Beamer's alpha/beta hysteresis
/// over the pull's scan cost `scan` (MRBC: live in-degree; SBBC: local edge
/// count): enter pull at frontier degree >= scan / pull_alpha, stay while
/// it is >= scan / pull_beta, never pull on a host without local edges.
/// `last_pull` is the host's hysteresis bit. `frontier_degree()` runs only
/// when the rule needs it. All inputs are integers derived from the drain
/// list and the immutable local topology, so every thread count (and a
/// crash-replayed round) picks the same direction.
template <typename Options, typename FrontierDegree>
std::optional<std::uint64_t> choose_pull(const Options& opts, std::uint64_t local_edges,
                                         std::uint64_t scan, std::uint8_t& last_pull,
                                         FrontierDegree&& frontier_degree) {
  std::optional<std::uint64_t> fdeg;
  if (opts.direction == Direction::kPull) {
    fdeg = frontier_degree();
  } else if (opts.direction == Direction::kAuto && local_edges != 0) {
    const std::uint64_t d = frontier_degree();
    const double s = static_cast<double>(scan);
    if (static_cast<double>(d) >= (last_pull ? s / opts.pull_beta : s / opts.pull_alpha)) fdeg = d;
  }
  last_pull = fdeg ? 1 : 0;
  return fdeg;
}

}  // namespace mrbc::core
