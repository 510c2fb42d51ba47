#pragma once
// Synchronous-Brandes BC (SBBC, Section 5 of the paper): the Brandes
// algorithm expressed as level-by-level breadth-first search in the
// D-Galois model — the main baseline MRBC is compared against. One source
// is processed at a time; each BFS level (forward) and each dependency
// level (backward) costs one BSP round, so a source of eccentricity L
// executes ~2L rounds versus MRBC's pipelined batch.

#include <vector>

#include "core/bc_common.h"
#include "partition/partition.h"

namespace mrbc::baselines {

using core::BcResult;
using graph::Graph;
using graph::VertexId;

struct SbbcOptions : core::EngineOptions {
  /// kAuto thresholds: enter pull at frontier out-degree >= local_edges /
  /// pull_alpha, leave below local_edges / pull_beta. Unlike MrbcOptions
  /// (which tracks the live in-degree exactly off its finality plane), SBBC
  /// uses the static local edge count: settledness here is distance-based
  /// (the pull skips targets below the frontier level), so the dense
  /// mid-BFS levels are simply the rounds whose frontier degree is a large
  /// fraction of the local graph.
  double pull_alpha = 2.0;
  double pull_beta = 4.0;
  // Durable checkpoints (EngineOptions::checkpoint_dir) go to sbbc.ckpt
  // after each completed source. Sources are independent deterministic
  // executions, so source-boundary granularity preserves bit-identity: a
  // killed in-flight source simply re-runs in full on resume.
};

struct SbbcRun : core::BcRun {
  /// Host-rounds the forward phase drained in pull mode (direction
  /// optimization diagnostic; in-process only, not persisted).
  std::size_t forward_pull_rounds = 0;
  /// True when the run stopped early at a durable snapshot write.
  bool halted = false;
};

SbbcRun sbbc_bc(const Graph& g, const std::vector<VertexId>& sources,
                const SbbcOptions& options = {});

SbbcRun sbbc_bc(const partition::Partition& part, const std::vector<VertexId>& sources,
                const SbbcOptions& options = {});

}  // namespace mrbc::baselines
