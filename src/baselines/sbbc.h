#pragma once
// Synchronous-Brandes BC (SBBC, Section 5 of the paper): the Brandes
// algorithm expressed as level-by-level breadth-first search in the
// D-Galois model — the main baseline MRBC is compared against. One source
// is processed at a time; each BFS level (forward) and each dependency
// level (backward) costs one BSP round, so a source of eccentricity L
// executes ~2L rounds versus MRBC's pipelined batch.

#include <cstdint>
#include <vector>

#include "core/bc_common.h"
#include "partition/partition.h"

namespace mrbc::baselines {

using core::BcResult;
using graph::Graph;
using graph::VertexId;

/// Forward-phase drain direction. kAuto switches per host per round between
/// the push drain (iterate the frontier, relax out-edges) and the pull drain
/// (scan unsettled targets, gather from frontier in-neighbors) — Beamer's
/// direction optimization, restated so a pull round replays the push
/// round's contributions in push order and stays bit-identical.
enum class Direction : std::uint8_t { kAuto, kPush, kPull };

struct SbbcOptions : core::EngineOptions {
  /// Forward drain direction policy. Only rounds that stage (more than
  /// drain_grain entries, core::drain_stages) consider pulling; a pull
  /// round replays its pushes through the push drain's apply and side
  /// merge (core::replay_ranges). Smaller rounds always push inline.
  /// Scores, stats, wire traffic and checkpoint bytes are identical for all
  /// three settings — the knob trades scan work for push work.
  Direction direction = Direction::kAuto;
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
