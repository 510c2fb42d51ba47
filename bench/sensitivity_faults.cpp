// Sensitivity of execution cost to fault rate and checkpoint cadence. The
// recovery subsystem guarantees that faults never change the *result* or
// the *logical round count* (reliable delivery repairs a frame within its
// round; crashes roll back and replay); what faults do cost is modeled
// time. This sweep quantifies that overhead for MRBC on an RMAT workload:
//
//   drop rate  x  checkpoint interval  ->  rounds, retransmits,
//   checkpoints, recovery rounds, modeled network seconds, % overhead vs
//   the fault-free run's modeled network seconds, measured compute seconds.
//
// Expected: rounds are constant down every column (faults are invisible to
// the schedule); retransmit overhead grows with the drop rate; checkpoint
// overhead falls as the interval grows while recovery-round cost after the
// injected crash rises — the classic checkpoint-cadence trade-off. The
// modeled columns are exact from run to run; compute_s is measured wall
// clock and is kept apart from them.

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/mrbc.h"
#include "engine/fault.h"
#include "engine/recovery.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "report.h"
#include "util/stats.h"

namespace mrbc::bench {
namespace {

/// Permanent-death axis: number of host deaths x checkpoint interval. Deaths
/// are detected (stalled rounds), the dead host's shards are handed to
/// survivors, and execution rolls back to the last checkpoint — the result
/// and round schedule stay bit-identical to the fault-free run; what varies
/// is detection + handoff + replay cost, and availability. Returns the
/// number of gate violations (0 on success).
int run_recovery_axis(const partition::Partition& part,
                      const std::vector<graph::VertexId>& sources,
                      const core::MrbcOptions& base, const core::MrbcRun& clean) {
  const partition::HostId hosts = part.num_hosts();
  const double clean_seconds = clean.total().network_seconds;
  const std::size_t clean_rounds = clean.forward.rounds + clean.backward.rounds;

  Report report(
      "Sensitivity: permanent host deaths x checkpoint interval (MRBC, rmat9, 8 hosts)",
      "sensitivity_recovery.csv",
      {"deaths", "ckpt_interval", "rounds", "detect_rounds", "replay_rounds",
       "handoffs", "availability", "modeled_s", "overhead_pct", "compute_s"},
      13);

  int violations = 0;
  constexpr std::size_t kDefaultInterval = 8;  // ClusterOptions default cadence
  for (std::size_t deaths : {1u, 2u, 3u}) {
    for (std::size_t interval : {2u, 4u, 8u, 16u}) {
      sim::FaultPlan plan;
      plan.seed = 7000 + deaths * 100 + interval;
      for (std::size_t i = 0; i < deaths; ++i) {
        sim::FaultEvent ev;
        ev.kind = sim::FaultKind::kHostDeath;
        ev.round = static_cast<std::uint32_t>(4 + 3 * i);
        ev.host = static_cast<partition::HostId>((3 + 2 * i) % hosts);
        plan.events.push_back(ev);
      }
      sim::FaultInjector injector(plan, hosts);
      sim::Membership membership(hosts);

      core::MrbcOptions opts = base;
      opts.cluster.fault = &injector;
      opts.cluster.membership = &membership;
      opts.cluster.checkpoint_interval = interval;
      const auto run = core::mrbc_bc(part, sources, opts);
      const auto total = run.total();
      const std::size_t rounds = run.forward.rounds + run.backward.rounds;
      const double seconds = total.network_seconds;
      const double overhead = clean_seconds > 0.0
                                  ? 100.0 * (seconds - clean_seconds) / clean_seconds
                                  : 0.0;

      // Correctness gates: deaths must be invisible to the result and the
      // logical schedule, and every scheduled death must actually fire.
      if (rounds != clean_rounds) {
        std::fprintf(stderr,
                     "GATE VIOLATION: deaths=%zu interval=%zu changed the round "
                     "count (%zu vs fault-free %zu)\n",
                     deaths, interval, rounds, clean_rounds);
        ++violations;
      }
      if (run.result.bc.size() != clean.result.bc.size() ||
          std::memcmp(run.result.bc.data(), clean.result.bc.data(),
                      run.result.bc.size() * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "GATE VIOLATION: deaths=%zu interval=%zu perturbed BC "
                     "scores (must be bit-identical to fault-free)\n",
                     deaths, interval);
        ++violations;
      }
      if (total.faults.deaths != deaths) {
        std::fprintf(stderr,
                     "GATE VIOLATION: scheduled %zu deaths but %zu fired "
                     "(interval=%zu)\n",
                     deaths, total.faults.deaths, interval);
        ++violations;
      }
      // Cadence gate: a single death at the default checkpoint interval must
      // replay fewer than two checkpoint intervals of rounds — the rollback
      // target is at most one interval behind, plus the detection stall.
      if (deaths == 1 && interval == kDefaultInterval &&
          total.faults.recovery_rounds >= 2 * kDefaultInterval) {
        std::fprintf(stderr,
                     "GATE VIOLATION: single death at default interval %zu "
                     "replayed %zu rounds (budget < %zu)\n",
                     kDefaultInterval, total.faults.recovery_rounds,
                     2 * kDefaultInterval);
        ++violations;
      }

      report.add({std::to_string(deaths), std::to_string(interval),
                  std::to_string(rounds), std::to_string(total.faults.detection_rounds),
                  std::to_string(total.faults.recovery_rounds),
                  std::to_string(total.faults.handoffs),
                  util::fmt(total.availability(), 4), util::fmt(seconds, 4),
                  util::fmt(overhead, 1), util::fmt(total.compute_seconds, 4)});
    }
  }
  report.finish();
  std::printf(
      "Permanent deaths leave rounds (column 3) and BC scores bit-identical to\n"
      "the fault-free run; survivors adopt the dead host's shards and replay\n"
      "from the last checkpoint. Replay cost falls with checkpoint cadence,\n"
      "checkpoint cost rises — availability reports the fraction of executed\n"
      "rounds that made progress (not detection stalls or replays).\n");
  return violations;
}

/// Transient-fault axis (drop rate x checkpoint cadence), then the permanent
/// failure axis. Returns the number of enforced-gate violations.
int run() {
  const graph::Graph g = graph::rmat({.scale = 9, .edge_factor = 8.0, .seed = 12});
  const auto sources = graph::sample_sources(g, 16, 99, true);
  const partition::HostId hosts = 8;
  partition::Partition part(g, hosts, partition::Policy::kCartesianVertexCut);

  core::MrbcOptions base;
  base.batch_size = 8;
  const auto clean = core::mrbc_bc(part, sources, base);
  const double clean_seconds = clean.total().network_seconds;
  const std::size_t clean_rounds = clean.forward.rounds + clean.backward.rounds;

  Report report("Sensitivity: fault rate x checkpoint interval (MRBC, rmat9, 8 hosts)",
                "sensitivity_faults.csv",
                {"drop_rate", "ckpt_interval", "rounds", "retransmits", "checkpoints",
                 "recovery_rounds", "modeled_s", "overhead_pct", "compute_s"},
                13);

  int violations = 0;
  for (double drop : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    for (std::size_t interval : {2u, 4u, 8u, 16u, 32u}) {
      sim::FaultPlan plan;
      plan.seed = 1000 + static_cast<std::uint64_t>(drop * 1000) + interval;
      plan.drop_rate = drop;
      plan.duplicate_rate = drop / 4.0;
      plan.corrupt_rate = drop / 4.0;
      plan.events.push_back({sim::FaultKind::kCrash, 8, 3});  // exercises rollback cost
      sim::FaultInjector injector(plan, hosts);

      core::MrbcOptions opts = base;
      opts.cluster.fault = &injector;
      opts.cluster.checkpoint_interval = interval;
      const auto run = core::mrbc_bc(part, sources, opts);
      const auto total = run.total();
      const std::size_t rounds = run.forward.rounds + run.backward.rounds;
      const double seconds = total.network_seconds;
      const double overhead = clean_seconds > 0.0
                                  ? 100.0 * (seconds - clean_seconds) / clean_seconds
                                  : 0.0;
      // Cost gate: drops, duplicates, corruption, checkpoints and crash
      // replay only ever add modeled time.
      if (seconds < clean_seconds) {
        std::fprintf(stderr,
                     "GATE VIOLATION: drop=%.2f interval=%zu modeled %.6f s, under the "
                     "fault-free %.6f s\n",
                     drop, interval, seconds, clean_seconds);
        ++violations;
      }

      report.add({util::fmt(drop, 2), std::to_string(interval), std::to_string(rounds),
                  std::to_string(total.faults.retransmits),
                  std::to_string(total.faults.checkpoints),
                  std::to_string(total.faults.recovery_rounds), util::fmt(seconds, 4),
                  util::fmt(overhead, 1), util::fmt(total.compute_seconds, 4)});
    }
  }
  report.finish();
  std::printf(
      "Fault-free baseline: %zu rounds, %.4f modeled network seconds. Every\n"
      "faulted configuration must report the same logical round count (column 3)\n"
      "— the recovery subsystem repairs faults without perturbing the\n"
      "delayed-sync schedule. Overhead (%%) is the modeled price: retransmit\n"
      "traffic scales with drop rate, checkpoint cost with 1/interval, and the\n"
      "post-crash replay with interval.\n\n",
      clean_rounds, clean_seconds);

  return violations + run_recovery_axis(part, sources, base, clean);
}

}  // namespace
}  // namespace mrbc::bench

int main() {
  const int violations = mrbc::bench::run();
  if (violations != 0) {
    std::fprintf(stderr, "\n%d recovery gate violation(s) — see above.\n", violations);
    return 1;
  }
  return 0;
}
