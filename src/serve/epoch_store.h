#pragma once
// RCU-style epoch-versioned result store: the ingest thread publishes
// immutable snapshots; request handlers pin whichever snapshot is current
// when they start and read it without locks for the rest of the request.
// A snapshot is never mutated after publish, so a response can never mix
// fields from two epochs — the epoch id it carries describes every byte
// in it. Old epochs die when the last pinned reader drops its shared_ptr.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/bc_common.h"
#include "graph/graph.h"

namespace mrbc::serve {

/// One immutable epoch of results. Built off-line by the ingest thread,
/// then published; readers treat it as const forever after.
struct EpochSnapshot {
  std::uint64_t epoch = 0;        ///< IncrementalBc epoch the scores describe
  std::uint64_t publish_seq = 0;  ///< store ordinal (monotonic, starts at 1)
  graph::VertexId num_vertices = 0;
  graph::EdgeId num_edges = 0;

  core::BcScores bc;  ///< n/k-scaled estimates (IncrementalBc::scaled_scores)
  /// Optional per-epoch analytics (empty when ServerOptions::analytics off).
  std::vector<double> pagerank;
  std::vector<graph::VertexId> component;  ///< CC label per vertex
  std::vector<std::uint8_t> in_kcore;      ///< k-core membership at kcore_k
  std::uint32_t kcore_k = 0;
  std::size_t num_components = 0;

  double recompute_seconds = 0;  ///< wall time spent producing this epoch
  std::size_t coalesced_batches = 0;  ///< ingest batches folded into it
};

class EpochStore {
 public:
  using Ptr = std::shared_ptr<const EpochSnapshot>;

  /// Pin the current epoch. Never blocks publishers for more than the
  /// pointer copy; the returned snapshot stays valid (and unchanged) for
  /// as long as the caller holds it.
  Ptr current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

  /// Atomically replace the current epoch. Stamps publish_seq.
  void publish(std::shared_ptr<EpochSnapshot> snap) {
    std::lock_guard<std::mutex> lock(mu_);
    snap->publish_seq = ++publishes_;
    snap_ = std::move(snap);
  }

  /// Number of publishes so far (0 before the first).
  std::uint64_t publishes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return publishes_;
  }

 private:
  mutable std::mutex mu_;
  Ptr snap_;
  std::uint64_t publishes_ = 0;
};

}  // namespace mrbc::serve
