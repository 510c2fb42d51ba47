#pragma once
// Shared types for all betweenness-centrality implementations (MRBC core
// and the baselines), so tests and benchmarks can compare them uniformly:
// the result and run types every engine returns, and the configuration the
// two D-Galois engines (MRBC and SBBC) share.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "graph/graph.h"
#include "partition/partition.h"

namespace mrbc::core {

using graph::Graph;
using graph::VertexId;

/// Per-vertex betweenness scores, summed over the processed sources.
/// With all n vertices as sources this is exact BC; with a sampled source
/// set it is the standard approximation (Bader et al. [6] in the paper).
using BcScores = std::vector<double>;

/// Full per-source data from a forward+backward execution. Indexed
/// [source_index][vertex]; source_index follows the `sources` vector.
struct BcResult {
  BcScores bc;
  std::vector<VertexId> sources;
  std::vector<std::vector<std::uint32_t>> dist;  ///< kInfDist when unreachable
  std::vector<std::vector<double>> sigma;
  std::vector<std::vector<double>> delta;
};

/// Result and cost of a distributed forward+backward run (MRBC, SBBC, MFBC).
struct BcRun {
  BcResult result;
  sim::RunStats forward;   ///< summed over batches / sources
  sim::RunStats backward;  ///< summed over batches / sources

  sim::RunStats total() const {
    sim::RunStats t = forward;
    t += backward;
    return t;
  }
};

/// Maximum finite distance in a distance table ("H" in Lemma 8).
std::uint32_t max_finite_distance(const std::vector<std::vector<std::uint32_t>>& dist);

/// Configuration shared by the two D-Galois engines, MRBC (core/mrbc.h) and
/// SBBC (baselines/sbbc.h); each engine's options add their own fields.
struct EngineOptions {
  partition::HostId num_hosts = 4;
  partition::Policy policy = partition::Policy::kCartesianVertexCut;
  /// Retain per-source dist/sigma/delta tables in the result (tests).
  bool collect_tables = false;
  /// Worklist entries per chunk of the round drain (core::drain_round). A
  /// round of more entries stages: parallel push generation over
  /// grain-sized chunks, then per-target-range replay in inline push order.
  /// A round of at most this many applies each push as it is generated.
  /// Both ways run the same relaxation body, and results are bit-identical
  /// for any thread count at a fixed grain. Only SBBC's staged forward
  /// rounds may pull instead (SbbcOptions::direction); MRBC always pushes.
  std::size_t drain_grain = 64;
  sim::ClusterOptions cluster;

  // ---- Durable restart-from-disk checkpoints ------------------------------
  /// When non-empty, the run persists its progress to a versioned
  /// crc32-framed snapshot in this directory (mrbc.ckpt / sbbc.ckpt, see
  /// sim::DurableFile in engine/snapshot.h), so a killed process can be
  /// restarted with `resume` and produce bit-identical scores and round
  /// counts. The snapshot embeds a configuration fingerprint; resuming
  /// under different options or sources throws sim::SnapshotError.
  std::string checkpoint_dir;
  /// Continue from the snapshot in checkpoint_dir instead of starting
  /// fresh. Throws sim::SnapshotError if the file is missing, corrupt, or
  /// was written by a different configuration.
  bool resume = false;
  /// Test hook: stop the run (halted = true, partial results) after this
  /// many durable snapshot writes — simulates a process killed right after
  /// persisting. 0 disables.
  std::size_t halt_after_checkpoints = 0;
  /// Cooperative-shutdown hook: when set and the pointee becomes true, the
  /// run stops (halted = true) at the next durable snapshot write — the
  /// snapshot on disk is the state to resume from. bc_tool points this at
  /// its SIGINT/SIGTERM flag so a signal means checkpoint-then-exit instead
  /// of dying mid-write. Only consulted when checkpointing is on.
  const std::atomic<bool>* halt_flag = nullptr;
};

}  // namespace mrbc::core
