#pragma once
// Min-Rounds BC in the D-Galois execution model (Section 4 of the paper):
// the pipelined APSP forward phase (Alg. 3) and the timestamp-reversal
// accumulation phase (Alg. 5) expressed as vertex operators over a
// partitioned graph, with Gluon-style proxy synchronization and the
// paper's optimizations:
//
//   * Section 4.3 data structures: dense per-source array + the sorted
//     (dist, source) list L_v per vertex (mrbc_state.h);
//   * delayed synchronization: a vertex's (dist, sigma) is broadcast to
//     its proxies only in the round r = d_sv + l_v(d_sv, s) when it is
//     final, and its dependency only in round A_sv = R - tau_sv + 1;
//     mirrors reduce partial contributions eagerly with Gluon
//     reduce-reset semantics, which is what keeps partial sigma / delta
//     sums exact;
//   * source batching (Lemma 8): k sources per execution, at most
//     2(k + H) + O(1) rounds per batch where H is the largest finite
//     distance from the batch.
//
// Both phases drain push-only (inline, or staged above drain_grain). Delayed
// sync fires at most one (vertex, source) entry per vertex per round, so
// MRBC's frontiers stay thin next to the live graph — not the regime where
// a direction-optimized pull drain pays; that optimization lives in SBBC
// (baselines/sbbc.h), whose level-synchronous frontiers are dense.

#include <cstdint>
#include <vector>

#include "core/bc_common.h"
#include "partition/partition.h"

namespace mrbc::core {

struct MrbcOptions : EngineOptions {
  std::uint32_t batch_size = 32;
  /// The Section 4.3 delayed-synchronization optimization. When false,
  /// masters additionally broadcast every intermediate label change
  /// (Gluon's default update-tracking behavior), modelling the extra
  /// traffic the optimization removes; algorithm results are identical.
  bool delayed_sync = true;
  // Durable checkpoints (EngineOptions::checkpoint_dir) go to mrbc.ckpt:
  // every coordinated checkpoint and every batch boundary is persisted, so
  // a resume continues mid-phase.
};

struct MrbcRun : BcRun {
  std::size_t num_batches = 0;
  std::size_t anomalies = 0;  ///< pipelining-invariant violations (must be 0)
  /// Always 0: MRBC drains push-only. Kept so readers of the old
  /// pull-round diagnostic (the perfbench exact record) still compile;
  /// SbbcRun::forward_pull_rounds is the live counter.
  std::size_t forward_pull_rounds = 0;
  double replication_factor = 0.0;
  /// True when the run stopped early at a durable snapshot write
  /// (halt_after_checkpoints or halt_flag); the file on disk is the state
  /// to resume from.
  bool halted = false;
};

/// Runs MRBC over `sources` (partitioning `g` internally).
MrbcRun mrbc_bc(const Graph& g, const std::vector<graph::VertexId>& sources,
                const MrbcOptions& options = {});

/// Same, over a pre-built partition (options.num_hosts/policy ignored).
MrbcRun mrbc_bc(const partition::Partition& part, const std::vector<graph::VertexId>& sources,
                const MrbcOptions& options = {});

}  // namespace mrbc::core
