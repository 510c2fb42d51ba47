// Tests for the execution engines: the network cost model, the BSP loop's
// termination/accounting, and the CONGEST message transport.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "engine/cluster.h"
#include "engine/congest.h"
#include "engine/fault.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/timer.h"

namespace mrbc {
namespace {

using sim::BspLoop;
using sim::ClusterOptions;
using sim::HostWork;
using sim::NetworkModel;
using sim::RunStats;

// ---- NetworkModel ----------------------------------------------------------

TEST(NetworkModel, CostComponents) {
  NetworkModel net{.alpha_per_message = 1e-6, .beta_bytes_per_sec = 1e9, .kappa_barrier = 1e-5};
  EXPECT_DOUBLE_EQ(net.phase_seconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(net.phase_seconds(10, 0), 1e-5);
  EXPECT_DOUBLE_EQ(net.phase_seconds(0, 1000000), 1e-3);
  EXPECT_DOUBLE_EQ(net.round_seconds(0, 0), 1e-5);  // barrier always paid
  EXPECT_DOUBLE_EQ(net.round_seconds(10, 1000000), 1e-5 + 1e-5 + 1e-3);
}

TEST(NetworkModel, EmptyRoundChargesBarrierExactlyOnce) {
  NetworkModel net;
  EXPECT_DOUBLE_EQ(net.round_seconds(0, 0), net.kappa_barrier);
  // Two empty rounds cost exactly two barriers — no hidden terms.
  EXPECT_DOUBLE_EQ(net.round_seconds(0, 0) + net.round_seconds(0, 0), 2.0 * net.kappa_barrier);
}

TEST(NetworkModel, DegenerateConstantsNeverProduceNanOrNegative) {
  // beta = 0 (a 0/0 risk for the bandwidth term) must stay finite.
  NetworkModel zero_beta{.beta_bytes_per_sec = 0.0};
  EXPECT_TRUE(std::isfinite(zero_beta.round_seconds(0, 0)));
  EXPECT_TRUE(std::isfinite(zero_beta.round_seconds(5, 1000)));
  EXPECT_GE(zero_beta.round_seconds(5, 1000), 0.0);

  NetworkModel negative{.alpha_per_message = -1.0, .beta_bytes_per_sec = -5.0,
                        .kappa_barrier = -2.0};
  EXPECT_GE(negative.round_seconds(0, 0), 0.0);
  EXPECT_GE(negative.round_seconds(100, 1 << 20), 0.0);
  EXPECT_TRUE(std::isfinite(negative.round_seconds(100, 1 << 20)));

  NetworkModel nan_kappa{.kappa_barrier = std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isfinite(nan_kappa.round_seconds(0, 0)));
  EXPECT_TRUE(std::isfinite(nan_kappa.round_seconds(3, 128)));
}

TEST(NetworkModel, RetransmitAndCheckpointCosts) {
  NetworkModel net{.beta_bytes_per_sec = 1e9};
  net.rto_seconds = 1e-4;
  net.checkpoint_bytes_per_sec = 1e9;
  EXPECT_DOUBLE_EQ(net.retransmit_seconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(net.retransmit_seconds(3, 0), 3e-4);
  EXPECT_DOUBLE_EQ(net.retransmit_seconds(1, 1000000), 1e-4 + 1e-3);
  EXPECT_DOUBLE_EQ(net.checkpoint_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(net.checkpoint_seconds(1000000), 1e-3);
  net.checkpoint_bytes_per_sec = 0.0;  // degenerate bandwidth stays finite
  EXPECT_DOUBLE_EQ(net.checkpoint_seconds(1 << 20), 0.0);
}

// ---- BspLoop ---------------------------------------------------------------

TEST(BspLoop, RunsUntilQuiescence) {
  // Hosts count down; host h is active for h+1 rounds.
  const partition::HostId H = 4;
  std::vector<int> remaining{1, 2, 3, 4};
  BspLoop loop(H);
  RunStats stats = loop.run(
      [&](std::size_t) { return comm::SyncStats{}; },
      [&](partition::HostId h, std::size_t) {
        HostWork w;
        if (remaining[h] > 0) {
          --remaining[h];
          w.work_items = 1;
        }
        w.active = remaining[h] > 0;
        return w;
      },
      [] { return false; });
  EXPECT_EQ(stats.rounds, 4u);
  for (int r : remaining) EXPECT_EQ(r, 0);
}

TEST(BspLoop, PendingFlagsKeepItAlive) {
  int pending_rounds = 3;
  BspLoop loop(2);
  RunStats stats = loop.run(
      [&](std::size_t) {
        if (pending_rounds > 0) --pending_rounds;
        return comm::SyncStats{};
      },
      [&](partition::HostId, std::size_t) { return HostWork{}; },
      [&] { return pending_rounds > 0; });
  // The forced first round already consumes one pending unit.
  EXPECT_EQ(stats.rounds, 3u);
}

TEST(BspLoop, MaxRoundsCapStopsRunaways) {
  ClusterOptions opts;
  opts.max_rounds = 10;
  BspLoop loop(1, opts);
  RunStats stats = loop.run([](std::size_t) { return comm::SyncStats{}; },
                            [](partition::HostId, std::size_t) {
                              HostWork w;
                              w.active = true;  // never quiesces
                              return w;
                            },
                            [] { return false; });
  EXPECT_EQ(stats.rounds, 10u);
}

TEST(BspLoop, AccountingAggregatesCommStats) {
  BspLoop loop(2);
  int rounds_left = 3;
  RunStats stats = loop.run(
      [&](std::size_t) {
        comm::SyncStats s;
        s.messages = 2;
        s.bytes = 100;
        s.values = 5;
        s.bytes_per_host = {60, 40};
        return s;
      },
      [&](partition::HostId h, std::size_t) {
        HostWork w;
        w.work_items = 7;
        // Only host 0 drives liveness; both hosts report equal work.
        w.active = h == 0 ? (--rounds_left > 0) : false;
        return w;
      },
      [] { return false; });
  // 3 active rounds (the third reports inactive and nothing pending).
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.messages, 6u);
  EXPECT_EQ(stats.bytes, 300u);
  EXPECT_EQ(stats.values, 15u);
  EXPECT_GT(stats.network_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_imbalance(), 1.0);  // equal work on both hosts
}

TEST(BspLoop, ImbalanceReflectsSkewedWork) {
  BspLoop loop(4);
  int rounds_left = 2;
  RunStats stats = loop.run(
      [](std::size_t) { return comm::SyncStats{}; },
      [&](partition::HostId h, std::size_t) {
        HostWork w;
        w.work_items = h == 0 ? 40 : 0;  // all work on host 0
        w.active = h == 0 && --rounds_left > 0;
        return w;
      },
      [] { return false; });
  EXPECT_DOUBLE_EQ(stats.mean_imbalance(), 4.0);  // max/mean = 40/10
  (void)stats;
}

// A counting app whose whole state is one integer per host; deterministic
// compute makes checkpoint/rollback/replay exactly reproducible.
struct CounterApp final : sim::Checkpointable {
  std::vector<std::uint64_t> counters;
  explicit CounterApp(std::size_t hosts) : counters(hosts, 0) {}

  void save_checkpoint(util::SendBuffer& buf) const override { buf.write_vector(counters); }
  void restore_checkpoint(util::RecvBuffer& buf) override {
    counters = buf.read_vector<std::uint64_t>();
  }
};

TEST(BspLoop, CrashRollsBackToCheckpointAndReplays) {
  const std::size_t kHosts = 3;
  const std::size_t kRounds = 7;
  sim::FaultPlan plan;
  plan.events.push_back({sim::FaultKind::kCrash, 5, 1});
  sim::FaultInjector injector(plan, kHosts);
  ClusterOptions opts;
  opts.fault = &injector;
  opts.checkpoint_interval = 2;
  CounterApp app(kHosts);
  BspLoop loop(kHosts, opts);
  RunStats stats = loop.run(
      [&](std::size_t) { return comm::SyncStats{}; },
      [&](partition::HostId h, std::size_t round) {
        app.counters[h] += round;  // deterministic function of the round
        HostWork w;
        w.active = round < kRounds;
        return w;
      },
      [] { return false; }, &app);
  // Logical progress is unaffected by the crash: same rounds, same state.
  EXPECT_EQ(stats.rounds, kRounds);
  for (std::uint64_t c : app.counters) EXPECT_EQ(c, kRounds * (kRounds + 1) / 2);
  EXPECT_EQ(stats.faults.crashes, 1u);
  // Crash at round 5 with interval 2 rolls back to the round-4 checkpoint.
  EXPECT_EQ(stats.faults.recovery_rounds, 1u);
  EXPECT_GT(stats.faults.checkpoints, 2u);  // round 0 + periodic
  EXPECT_GT(stats.faults.checkpoint_bytes, 0u);
  EXPECT_GT(stats.faults.checkpoint_seconds, 0.0);
}

TEST(BspLoop, StragglerSlowdownInflatesComputeTime) {
  const std::size_t kHosts = 4;
  sim::FaultPlan plan;
  plan.straggler_rate = 1.0;  // every host is a straggler
  plan.straggler_slowdown = 8.0;
  sim::FaultInjector slow_inj(plan, kHosts);
  ClusterOptions slow_opts;
  slow_opts.fault = &slow_inj;
  // The callback times its own work. BspLoop's per-host timer encloses the
  // callback and the round's times add up in the same order, so the
  // recorded time is at least the callback's own, and scaling by 8 is exact
  // in floating point: the bound holds on every run, however noisy.
  std::vector<double> inner(kHosts, 0.0);
  auto spin = [&](partition::HostId h, std::size_t round) {
    util::Timer timer;
    volatile double x = 1.0;
    for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 0.5;
    HostWork w;
    w.active = round < 3;
    inner[h] += timer.seconds();
    return w;
  };
  BspLoop slow_loop(kHosts, slow_opts);
  RunStats slow = slow_loop.run([&](std::size_t) { return comm::SyncStats{}; }, spin,
                                [] { return false; });
  EXPECT_EQ(slow.rounds, 3u);
  ASSERT_EQ(slow.per_host_compute_seconds.size(), kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    EXPECT_EQ(slow_inj.compute_slowdown(static_cast<partition::HostId>(h)), 8.0);
    EXPECT_GT(inner[h], 0.0);
    EXPECT_GE(slow.per_host_compute_seconds[h], 8.0 * inner[h]) << "host " << h;
  }
}

TEST(BspLoop, RoundLogReconcilesWithAggregatesUnderCrashes) {
  // Every *executed* round — including the crashed one and its replays —
  // gets a round_log entry, so the log's column sums reconcile exactly
  // with the aggregate counters even in a fault-injected run.
  const std::size_t kHosts = 3;
  const std::size_t kRounds = 7;
  sim::FaultPlan plan;
  plan.events.push_back({sim::FaultKind::kCrash, 5, 1});
  sim::FaultInjector injector(plan, kHosts);
  ClusterOptions opts;
  opts.fault = &injector;
  opts.checkpoint_interval = 2;
  opts.record_round_log = true;
  CounterApp app(kHosts);
  BspLoop loop(kHosts, opts);
  RunStats stats = loop.run(
      [&](std::size_t round) {
        comm::SyncStats s;
        s.bytes_per_host.assign(kHosts, 7 * round);
        s.msgs_per_host.assign(kHosts, 1);
        s.messages = kHosts;
        s.bytes = kHosts * 7 * round;
        s.values = round;
        return s;
      },
      [&](partition::HostId h, std::size_t round) {
        app.counters[h] += round;
        HostWork w;
        w.active = round < kRounds;
        w.work_items = round + h;
        return w;
      },
      [] { return false; }, &app);

  EXPECT_EQ(stats.rounds, kRounds);
  EXPECT_EQ(stats.faults.crashes, 1u);
  // 7 logical rounds + 1 re-executed round after rolling back to the
  // round-4 checkpoint.
  ASSERT_EQ(stats.round_log.size(), stats.rounds + stats.faults.recovery_rounds);

  std::size_t messages = 0, bytes = 0, values = 0, crashed_entries = 0;
  std::uint64_t work_items = 0;
  double compute = 0, network = 0;
  for (const sim::RoundLogEntry& e : stats.round_log) {
    messages += e.messages;
    bytes += e.bytes;
    values += e.values;
    work_items += e.work_items;
    compute += e.compute_seconds;
    network += e.network_seconds;
    if (e.crashed) ++crashed_entries;
  }
  EXPECT_EQ(crashed_entries, 1u);
  EXPECT_TRUE(stats.round_log[4].crashed) << "round 5 is the 5th executed round";
  EXPECT_EQ(stats.round_log[5].round, 5u) << "replayed round repeats the logical number";
  EXPECT_FALSE(stats.round_log[5].crashed);
  // Integer counters reconcile exactly...
  EXPECT_EQ(messages, stats.messages);
  EXPECT_EQ(bytes, stats.bytes);
  EXPECT_EQ(values, stats.values);
  // ...compute sums bitwise (same values added in the same order)...
  EXPECT_DOUBLE_EQ(compute, stats.compute_seconds);
  // ...and network reconciles once checkpoint writes (accounted between
  // rounds, never in an entry) are taken back out.
  EXPECT_NEAR(network, stats.network_seconds - stats.faults.checkpoint_seconds, 1e-12);
  std::uint64_t expected_work = 0;
  for (std::size_t round = 1; round <= kRounds; ++round) {
    for (std::size_t h = 0; h < kHosts; ++h) expected_work += round + h;
  }
  for (std::size_t h = 0; h < kHosts; ++h) expected_work += 5 + h;  // replayed round 5
  EXPECT_EQ(work_items, expected_work);
}

TEST(RunStats, PlusEqualsAggregates) {
  RunStats a, b;
  a.rounds = 3;
  a.compute_seconds = 1.0;
  a.messages = 10;
  a.per_host_compute_seconds = {0.5, 0.5};
  b.rounds = 2;
  b.compute_seconds = 0.5;
  b.messages = 4;
  b.per_host_compute_seconds = {0.2, 0.3};
  a += b;
  EXPECT_EQ(a.rounds, 5u);
  EXPECT_DOUBLE_EQ(a.compute_seconds, 1.5);
  EXPECT_EQ(a.messages, 14u);
  EXPECT_DOUBLE_EQ(a.per_host_compute_seconds[1], 0.8);
  EXPECT_DOUBLE_EQ(a.total_seconds(), a.compute_seconds + a.network_seconds);
}

// ---- CONGEST network -------------------------------------------------------

struct TestMsg {
  int payload;
};

TEST(CongestNetwork, DeliversNextRound) {
  auto g = graph::path(3);  // 0 -> 1 -> 2
  congest::Network<TestMsg> net(g);
  net.send(0, 1, {42});
  EXPECT_TRUE(net.messages_in_flight());
  EXPECT_TRUE(net.inbox(1).empty());
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].first, 0u);
  EXPECT_EQ(net.inbox(1)[0].second.payload, 42);
  EXPECT_FALSE(net.messages_in_flight());
  net.advance_round();
  EXPECT_TRUE(net.inbox(1).empty()) << "inboxes are cleared each round";
}

TEST(CongestNetwork, BroadcastHelpersFollowAdjacency) {
  auto g = graph::build_graph(4, {{0, 1}, {0, 2}, {3, 0}});
  congest::Network<TestMsg> net(g);
  net.send_to_out_neighbors(0, {1});
  net.send_to_in_neighbors(0, {2});  // against edge (3,0)
  net.advance_round();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 1u);
  ASSERT_EQ(net.inbox(3).size(), 1u);
  EXPECT_EQ(net.inbox(3)[0].second.payload, 2);
}

TEST(CongestNetwork, MessageAccounting) {
  auto g = graph::complete(4);
  congest::Network<TestMsg> net(g);
  net.send_to_out_neighbors(0, {1});
  net.advance_round();
  EXPECT_EQ(net.messages_last_round(), 3u);
  EXPECT_EQ(net.total_messages(), 3u);
  net.send(1, 2, {1});
  net.send(2, 3, {1});
  net.advance_round();
  EXPECT_EQ(net.messages_last_round(), 2u);
  EXPECT_EQ(net.total_messages(), 5u);
  EXPECT_EQ(net.round(), 2u);
}

}  // namespace
}  // namespace mrbc
