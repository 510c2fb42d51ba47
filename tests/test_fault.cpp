// Fault injection and recovery: the headline robustness guarantee is that
// under any seeded fault schedule with recovery enabled, MRBC and SBBC
// produce BC scores identical to the fault-free run — message faults are
// masked within their round by reliable delivery (so the delayed-sync
// schedule and quiescence detection are untouched), and crashes roll back
// to a coordinated checkpoint and replay deterministically.

#include <gtest/gtest.h>

#include "baselines/brandes_seq.h"
#include "baselines/sbbc.h"
#include "core/mrbc.h"
#include "engine/fault.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace mrbc {
namespace {

using graph::Graph;
using graph::VertexId;
using sim::FaultInjector;
using sim::FaultPlan;

Graph test_graph() { return graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 21}); }

std::vector<VertexId> test_sources(const Graph& g) {
  return graph::sample_sources(g, 12, 77, true);
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, SeededScheduleIsDeterministic) {
  FaultPlan plan;
  plan.seed = 123;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.corrupt_rate = 0.25;
  FaultInjector a(plan, 4), b(plan, 4);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.drop(0, 1, i), b.drop(0, 1, i));
    EXPECT_EQ(a.duplicate(1, 2, i), b.duplicate(1, 2, i));
    EXPECT_EQ(a.corrupt_bit(2, 3, i, 64), b.corrupt_bit(2, 3, i, 64));
  }
  plan.seed = 124;
  FaultInjector c(plan, 4);
  int differences = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.drop(0, 1, i) != c.drop(0, 1, i)) ++differences;
  }
  EXPECT_GT(differences, 0) << "different seeds must give different schedules";
}

TEST(FaultInjector, CorruptBitStaysInPayload) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  FaultInjector inj(plan, 2);
  for (int i = 0; i < 200; ++i) {
    const long bit = inj.corrupt_bit(0, 1, i, 16);
    ASSERT_GE(bit, 0);
    ASSERT_LT(bit, 16 * 8);
  }
  EXPECT_EQ(inj.corrupt_bit(0, 1, 0, 0), -1) << "empty payloads cannot be corrupted";
}

TEST(FaultInjector, StragglerAssignmentIsSeededAndBounded) {
  FaultPlan all;
  all.straggler_rate = 1.0;
  all.straggler_slowdown = 4.0;
  FaultInjector a(all, 8);
  for (partition::HostId h = 0; h < 8; ++h) EXPECT_DOUBLE_EQ(a.compute_slowdown(h), 4.0);

  FaultPlan none;
  none.straggler_rate = 0.0;
  FaultInjector b(none, 8);
  for (partition::HostId h = 0; h < 8; ++h) EXPECT_DOUBLE_EQ(b.compute_slowdown(h), 1.0);

  // A sub-1.0 slowdown cannot speed a host up.
  FaultPlan fast;
  fast.straggler_rate = 1.0;
  fast.straggler_slowdown = 0.25;
  FaultInjector c(fast, 4);
  for (partition::HostId h = 0; h < 4; ++h) EXPECT_GE(c.compute_slowdown(h), 1.0);
}

TEST(FaultInjector, CrashFiresExactlyOnceUntilRearmed) {
  FaultPlan plan;
  plan.crash_round = 3;
  plan.crash_host = 9;  // taken modulo host count
  FaultInjector inj(plan, 4);
  partition::HostId dead = 0;
  EXPECT_FALSE(inj.crash_due(2, &dead));
  EXPECT_TRUE(inj.crash_armed());
  ASSERT_TRUE(inj.crash_due(3, &dead));
  EXPECT_EQ(dead, 1u);
  EXPECT_FALSE(inj.crash_due(3, &dead)) << "replaying round 3 must not crash again";
  EXPECT_FALSE(inj.crash_armed());
  inj.rearm();
  EXPECT_TRUE(inj.crash_due(3, &dead));
}

// ---- Reliable delivery masks message faults --------------------------------

TEST(FaultRecovery, ReliableDeliveryMasksDrops) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 6;
  const auto clean = core::mrbc_bc(g, sources, opts);

  FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.25;
  FaultInjector injector(plan, opts.num_hosts);
  core::MrbcOptions fopts = opts;
  fopts.cluster.fault = &injector;
  const auto faulty = core::mrbc_bc(g, sources, fopts);

  EXPECT_EQ(faulty.anomalies, 0u);
  testing::expect_bc_equal(golden.bc, faulty.result.bc, "mrbc under drops");
  // Retransmission is synchronous within the round, so the delayed-sync
  // schedule is untouched: round counts match the fault-free run exactly
  // (quiescence never fires early, no extra rounds appear).
  EXPECT_EQ(faulty.forward.rounds, clean.forward.rounds);
  EXPECT_EQ(faulty.backward.rounds, clean.backward.rounds);
  const auto total = faulty.total();
  EXPECT_GT(total.faults.drops, 0u);
  EXPECT_GT(total.faults.retransmits, 0u);
  EXPECT_GT(total.faults.retransmit_bytes, 0u);
  EXPECT_GT(total.faults.retransmit_seconds, 0.0);
}

TEST(FaultRecovery, DuplicatesSuppressedAndCorruptionRepaired) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  FaultPlan plan;
  plan.seed = 17;
  plan.duplicate_rate = 0.3;
  plan.corrupt_rate = 0.2;
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 6;
  FaultInjector injector(plan, opts.num_hosts);
  opts.cluster.fault = &injector;
  const auto run = core::mrbc_bc(g, sources, opts);

  EXPECT_EQ(run.anomalies, 0u);
  testing::expect_bc_equal(golden.bc, run.result.bc, "mrbc under dup+corrupt");
  const auto total = run.total();
  EXPECT_GT(total.faults.duplicates, 0u);
  EXPECT_GT(total.faults.duplicates_suppressed, 0u);
  EXPECT_GT(total.faults.corruptions_detected, 0u);
  EXPECT_GT(total.faults.retransmits, 0u);
}

// ---- Crash recovery --------------------------------------------------------

TEST(FaultRecovery, MrbcCrashRecoveryMatchesFaultFreeRun) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  FaultPlan plan;
  plan.seed = 41;
  plan.crash_round = 5;
  plan.crash_host = 2;
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 6;
  FaultInjector injector(plan, opts.num_hosts);
  opts.cluster.fault = &injector;
  opts.cluster.checkpoint_interval = 2;
  const auto run = core::mrbc_bc(g, sources, opts);

  EXPECT_EQ(run.anomalies, 0u);
  testing::expect_bc_equal(golden.bc, run.result.bc, "mrbc crash recovery");
  const auto total = run.total();
  EXPECT_EQ(total.faults.crashes, 1u);
  EXPECT_GT(total.faults.checkpoints, 0u);
  EXPECT_GT(total.faults.checkpoint_bytes, 0u);
  EXPECT_GE(total.faults.recovery_rounds, 1u);
}

TEST(FaultRecovery, MrbcSurvivesCombinedFaultSchedule) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  FaultPlan plan;
  plan.seed = 53;
  plan.drop_rate = 0.15;
  plan.duplicate_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.straggler_rate = 0.25;
  plan.crash_round = 7;
  plan.crash_host = 1;
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 6;
  FaultInjector injector(plan, opts.num_hosts);
  opts.cluster.fault = &injector;
  opts.cluster.checkpoint_interval = 3;
  const auto run = core::mrbc_bc(g, sources, opts);

  EXPECT_EQ(run.anomalies, 0u);
  testing::expect_bc_equal(golden.bc, run.result.bc, "mrbc combined faults");
  EXPECT_EQ(run.total().faults.crashes, 1u);
}

TEST(FaultRecovery, SbbcCrashRecoveryMatchesFaultFreeRun) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  FaultPlan plan;
  plan.seed = 61;
  plan.drop_rate = 0.2;
  plan.crash_round = 3;
  plan.crash_host = 3;
  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  FaultInjector injector(plan, opts.num_hosts);
  opts.cluster.fault = &injector;
  opts.cluster.checkpoint_interval = 2;
  const auto run = baselines::sbbc_bc(g, sources, opts);

  testing::expect_bc_equal(golden.bc, run.result.bc, "sbbc crash recovery");
  const auto total = run.total();
  EXPECT_EQ(total.faults.crashes, 1u);
  EXPECT_GT(total.faults.checkpoints, 0u);
  EXPECT_GT(total.faults.drops, 0u);
  EXPECT_GT(total.faults.retransmits, 0u);
}

TEST(FaultRecovery, FaultFreeRunReportsZeroFaultCounters) {
  const Graph g = test_graph();
  const auto sources = test_sources(g);
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  const auto run = core::mrbc_bc(g, sources, opts);
  const auto total = run.total();
  EXPECT_EQ(total.faults.drops, 0u);
  EXPECT_EQ(total.faults.retransmits, 0u);
  EXPECT_EQ(total.faults.corruptions_detected, 0u);
  EXPECT_EQ(total.faults.checkpoints, 0u);
  EXPECT_EQ(total.faults.crashes, 0u);
  EXPECT_DOUBLE_EQ(total.faults.retransmit_seconds, 0.0);
}

}  // namespace
}  // namespace mrbc
