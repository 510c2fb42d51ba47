#pragma once
// The one round drain of the MRBC and SBBC phase kernels (the design
// comment in core/mrbc.cpp says why it is bit-identical). A round drains a
// host's entry list — the broadcast arrivals, then the host's own
// scheduled entries — through two callables per kernel: expand(entry,
// emit), the kernel's one relaxation body, emits the entry's neighbor
// pushes, and apply(push, side, ordinal) applies one push. drain_round
// runs them one of two ways, chosen by the round's size:
//   - at or below `grain` entries, inline: each push is applied as it is
//     emitted, its side effects go straight to the host's own DrainSide,
//     and nothing is allocated;
//   - above it, staged: Phase A cuts the entries into grain-sized chunks
//     (thread-count independent) and records each chunk's pushes, bucketed
//     by the target lid's 64-aligned range; Phase B replays every range's
//     pushes in (chunk index, in-chunk order) — the inline push order —
//     with ranges running concurrently because they are disjoint in
//     everything a push mutates. Each range has a DrainSide of its own,
//     merged into the host's in push-ordinal order.

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/thread_pool.h"

namespace mrbc::core {

/// 64 lids per replay range: one DynamicBitset word, so concurrent ranges
/// never share a substrate flag word.
constexpr std::uint32_t kRangeShift = 6;

inline std::size_t num_drain_ranges(std::size_t num_proxies) {
  return (num_proxies + (std::size_t{1} << kRangeShift) - 1) >> kRangeShift;
}

/// Whether a round of `total` entries stages: drain_round's choice, which
/// SBBC also consults before it considers a pull.
inline bool drain_stages(std::size_t total, std::size_t grain) {
  return total > std::max<std::size_t>(grain, 1);
}

/// One neighbor push, as an expand body emits it.
struct PushRec {
  graph::VertexId target = 0;
  std::uint32_t sidx = 0;   ///< source index (MRBC); unused by SBBC
  std::uint32_t dist = 0;   ///< forward phase only
  double value = 0;         ///< sigma (forward) / contribution (backward)
  std::uint32_t ord = 0;    ///< in-chunk push index (staged) / drain ordinal (SBBC pull)
};

/// A round's entry list: the broadcast arrivals, then the host's own
/// scheduled entries. Every drain visits the entries in this order.
template <typename Entry>
struct RoundEntries {
  const std::vector<Entry>& arrivals;
  const std::vector<Entry>& scheduled;

  std::size_t size() const { return arrivals.size() + scheduled.size(); }
  const Entry& operator[](std::size_t i) const {
    return i < arrivals.size() ? arrivals[i] : scheduled[i - arrivals.size()];
  }
};

/// Where a push's side effects go that its target lid does not own: an
/// anomaly count and appends to one host-wide list (MRBC's eager staging
/// list, SBBC's next frontier). A host's side writes straight to the
/// host's counter and list. A replay range's side keeps its own count and
/// records each append with its push ordinal until merge() folds it in.
class DrainSide {
 public:
  /// The host's own side. SBBC counts no anomalies and passes no counter.
  explicit DrainSide(std::vector<graph::VertexId>& list, std::size_t* anomalies = nullptr)
      : list_(&list), anomalies_(anomalies) {}
  /// A replay range's side.
  DrainSide() = default;

  void count_anomaly() { ++(list_ == nullptr ? range_anomalies_ : *anomalies_); }

  void append(graph::VertexId lid, std::uint64_t ordinal) {
    if (list_ == nullptr) {
      appends_.emplace_back(ordinal, lid);
    } else {
      list_->push_back(lid);
    }
  }

  /// Folds range sides into this host side and empties them: their counts
  /// add up, and their appends land in push-ordinal order, the order the
  /// inline drain appends them in.
  void merge(std::span<DrainSide> ranges) {
    std::vector<OrdLid> all;
    for (DrainSide& r : ranges) {
      if (r.range_anomalies_ != 0) *anomalies_ += std::exchange(r.range_anomalies_, 0);
      all.insert(all.end(), r.appends_.begin(), r.appends_.end());
      r.appends_.clear();
    }
    std::sort(all.begin(), all.end());
    for (const auto& [ordinal, lid] : all) list_->push_back(lid);
  }

 private:
  using OrdLid = std::pair<std::uint64_t, graph::VertexId>;  ///< (push ordinal, lid)
  std::vector<graph::VertexId>* list_ = nullptr;  ///< host side only
  std::size_t* anomalies_ = nullptr;              ///< host side only
  std::size_t range_anomalies_ = 0;               ///< range side only
  std::vector<OrdLid> appends_;                   ///< range side only
};

/// Phase-A output of one entry chunk: pushes counting-sorted (stably) into
/// contiguous per-range segments.
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

/// Per-host buffers of the staged drain, reused round after round:
/// capacities only grow.
struct DrainScratch {
  std::vector<ChunkRecs> chunks;          ///< Phase-A output, per entry chunk
  std::vector<std::vector<PushRec>> raw;  ///< Phase-A record buffer, per chunk
  std::vector<DrainSide> sides;           ///< Phase-B side, per replay range
};

/// Global ordinal of in-chunk push `ord` in chunk `c`: chunk-major order.
inline std::uint64_t push_ordinal(std::size_t c, std::uint32_t ord) {
  return (static_cast<std::uint64_t>(c) << 32) | ord;
}

/// Runs replay(range, side) for every range concurrently, each range with
/// a side of its own, then merges the range sides into `host`.
template <typename ReplayFn>
void replay_ranges(DrainScratch& sc, std::size_t num_ranges, DrainSide& host, ReplayFn&& replay) {
  if (sc.sides.size() < num_ranges) sc.sides.resize(num_ranges);
  util::ThreadPool::global().parallel_for(0, num_ranges, 1,
                                          [&](std::size_t r) { replay(r, sc.sides[r]); });
  host.merge(std::span<DrainSide>(sc.sides.data(), num_ranges));
}

/// Drains one round of `entries` on a host with `num_proxies` proxies and
/// returns the summed work items. expand(entry, emit) calls emit(push) for
/// each of the entry's pushes and returns the entry's work items;
/// apply(push, side, ordinal) applies one push, its side effects to
/// `side`. Staged buffers are pooled in `sc`.
template <typename Entry, typename ExpandFn, typename ApplyFn>
std::uint64_t drain_round(DrainScratch& sc, RoundEntries<Entry> entries, std::size_t grain,
                          std::size_t num_proxies, DrainSide& host, ExpandFn&& expand,
                          ApplyFn&& apply) {
  const std::size_t total = entries.size();
  std::uint64_t work_items = 0;
  if (!drain_stages(total, grain)) {
    for (std::size_t ei = 0; ei < total; ++ei) {
      work_items += expand(entries[ei], [&](const PushRec& p) { apply(p, host, 0); });
    }
    return work_items;
  }
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t n = util::ThreadPool::chunk_count(total, grain);
  const std::size_t num_ranges = num_drain_ranges(num_proxies);
  if (sc.chunks.size() < n) sc.chunks.resize(n);
  if (sc.raw.size() < n) sc.raw.resize(n);
  util::ThreadPool::global().parallel_for_chunks(
      0, total, grain, [&](std::size_t c, std::size_t b, std::size_t e) {
        ChunkRecs& ch = sc.chunks[c];
        std::vector<PushRec>& recs = sc.raw[c];
        recs.clear();
        ch.work_items = 0;
        for (std::size_t ei = b; ei < e; ++ei) {
          ch.work_items += expand(entries[ei], [&](const PushRec& p) {
            recs.push_back(p);
            recs.back().ord = static_cast<std::uint32_t>(recs.size() - 1);
          });
        }
        ch.bucket_by_range(recs, num_ranges);
      });
  replay_ranges(sc, num_ranges, host, [&](std::size_t r, DrainSide& side) {
    for (std::size_t c = 0; c < n; ++c) {
      const ChunkRecs& ch = sc.chunks[c];
      for (std::uint32_t i = ch.starts[r]; i < ch.starts[r + 1]; ++i) {
        apply(ch.sorted[i], side, push_ordinal(c, ch.sorted[i].ord));
      }
    }
  });
  for (std::size_t c = 0; c < n; ++c) work_items += sc.chunks[c].work_items;
  return work_items;
}

}  // namespace mrbc::core
