// The thread-count-determinism contract of the parallel execution engine:
// for a fixed drain grain, every algorithm result, sync statistic, and
// round log is bit-identical whether the pool runs 1, 2, or 8 threads —
// and the staged (parallel) drain kernels are bit-identical to the inline
// sequential drain. Fault-injected runs (drops, duplicates, corruption,
// crash + rollback-replay) must replay the exact same schedule too, since
// the fault draws key off the sequential delivery order the parallel
// substrate preserves.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "baselines/brandes_seq.h"
#include "baselines/sbbc.h"
#include "core/mrbc.h"
#include "engine/fault.h"
#include "graph/generators.h"
#include "stream/edge_batch.h"
#include "stream/incremental_bc.h"
#include "test_helpers.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace mrbc {
namespace {

using graph::Graph;
using graph::VertexId;

/// Exact bit equality for score vectors — no tolerance: the contract is
/// that the parallel kernels perform the same arithmetic in the same order.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << label << " diverges at vertex " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Compares every deterministic field of a RunStats pair (timings are
/// measured wall clock and excluded by design).
void expect_stats_equal(const sim::RunStats& a, const sim::RunStats& b, const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.bytes, b.bytes) << label;
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << label;
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << label;
  EXPECT_EQ(a.faults.corruptions_detected, b.faults.corruptions_detected) << label;
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits) << label;
  EXPECT_EQ(a.faults.checkpoints, b.faults.checkpoints) << label;
  EXPECT_EQ(a.faults.checkpoint_bytes, b.faults.checkpoint_bytes) << label;
  EXPECT_EQ(a.faults.crashes, b.faults.crashes) << label;
  ASSERT_EQ(a.round_log.size(), b.round_log.size()) << label;
  for (std::size_t i = 0; i < a.round_log.size(); ++i) {
    const auto& ra = a.round_log[i];
    const auto& rb = b.round_log[i];
    EXPECT_EQ(ra.round, rb.round) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.messages, rb.messages) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.bytes, rb.bytes) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.values, rb.values) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.work_items, rb.work_items) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.retransmits, rb.retransmits) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.crashed, rb.crashed) << label << " round_log[" << i << "]";
  }
}

/// Cross-codec-mode comparison: everything expect_stats_equal checks except
/// byte counts — compression changes the wire size by design, and nothing
/// else. Encoded bytes must be strictly smaller, never larger.
void expect_stats_equal_modulo_bytes(const sim::RunStats& a, const sim::RunStats& b,
                                     const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << label;
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << label;
  EXPECT_EQ(a.faults.corruptions_detected, b.faults.corruptions_detected) << label;
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits) << label;
  EXPECT_EQ(a.faults.checkpoints, b.faults.checkpoints) << label;
  EXPECT_EQ(a.faults.crashes, b.faults.crashes) << label;
  ASSERT_EQ(a.round_log.size(), b.round_log.size()) << label;
  for (std::size_t i = 0; i < a.round_log.size(); ++i) {
    const auto& ra = a.round_log[i];
    const auto& rb = b.round_log[i];
    EXPECT_EQ(ra.round, rb.round) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.messages, rb.messages) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.values, rb.values) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.work_items, rb.work_items) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.retransmits, rb.retransmits) << label << " round_log[" << i << "]";
    EXPECT_EQ(ra.crashed, rb.crashed) << label << " round_log[" << i << "]";
  }
}

Graph det_graph() { return graph::erdos_renyi(80, 0.06, 13); }

std::vector<VertexId> det_sources(const Graph& g, std::size_t n) {
  std::vector<VertexId> s;
  for (VertexId v = 0; v < g.num_vertices() && s.size() < n; v += 3) s.push_back(v);
  return s;
}

core::MrbcRun run_mrbc(const Graph& g, const std::vector<VertexId>& sources, std::size_t threads,
                       bool parallel_hosts, std::size_t drain_grain,
                       sim::FaultInjector* fault = nullptr,
                       comm::CodecMode codec = comm::CodecMode::kRaw,
                       bool delayed_sync = true,
                       partition::Policy policy = partition::Policy::kCartesianVertexCut) {
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 8;
  opts.drain_grain = drain_grain;
  opts.delayed_sync = delayed_sync;
  opts.policy = policy;
  opts.cluster.threads = threads;
  opts.cluster.parallel_hosts = parallel_hosts;
  opts.cluster.record_round_log = true;
  opts.cluster.codec = codec;
  if (fault != nullptr) {
    fault->rearm();
    opts.cluster.fault = fault;
    opts.cluster.checkpoint_interval = 2;
  }
  return core::mrbc_bc(g, sources, opts);
}

/// With `snapshot_crcs` set, every round checkpoints and the crc32 of each
/// loop snapshot is appended to it.
baselines::SbbcRun run_sbbc(const Graph& g, const std::vector<VertexId>& sources,
                            std::size_t threads, bool parallel_hosts, std::size_t drain_grain,
                            comm::CodecMode codec = comm::CodecMode::kRaw,
                            baselines::Direction direction = baselines::Direction::kAuto,
                            partition::Policy policy = partition::Policy::kCartesianVertexCut,
                            std::vector<std::uint32_t>* snapshot_crcs = nullptr) {
  baselines::SbbcOptions opts;
  opts.num_hosts = 4;
  opts.drain_grain = drain_grain;
  opts.direction = direction;
  opts.policy = policy;
  opts.cluster.threads = threads;
  opts.cluster.parallel_hosts = parallel_hosts;
  opts.cluster.record_round_log = true;
  opts.cluster.codec = codec;
  if (snapshot_crcs != nullptr) {
    opts.cluster.checkpoint_interval = 1;
    opts.cluster.on_checkpoint = [snapshot_crcs](const sim::LoopCheckpoint& ck,
                                                 const sim::RunStats&) {
      snapshot_crcs->push_back(util::crc32(ck.snapshot));
    };
  }
  return baselines::sbbc_bc(g, sources, opts);
}

/// Every partition policy, with the FNV-1a hash (testing::score_hash) its
/// runs' scores must have. An incoming edge-cut leaves only mirrors without
/// in-edges, so every backward broadcast is pruned; an outgoing edge-cut
/// leaves only mirrors with one, so none is.
struct PolicyPin {
  partition::Policy policy;
  std::uint64_t scores;
};

class DeterminismTest : public ::testing::Test {
 protected:
  // Leave the process-wide pool at 1 so suites running after this one see
  // the historical sequential behavior regardless of test order.
  void TearDown() override { mrbc::util::ThreadPool::set_global_threads(1); }
};

TEST_F(DeterminismTest, MrbcStagedDrainMatchesInlineDrain) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 16);
  // grain 1 forces every multi-entry round through the two-phase staged
  // kernel; a huge grain keeps every round on the inline drain. Eager sync
  // also stages intermediate labels through the drain's side lists.
  for (const bool delayed_sync : {true, false}) {
    const std::string label = "mrbc delayed_sync=" + std::to_string(delayed_sync);
    const auto staged = run_mrbc(g, sources, 1, false, 1, nullptr, comm::CodecMode::kRaw,
                                 delayed_sync);
    const auto inlined = run_mrbc(g, sources, 1, false, std::size_t{1} << 30, nullptr,
                                  comm::CodecMode::kRaw, delayed_sync);
    EXPECT_EQ(staged.anomalies, 0u) << label;
    EXPECT_EQ(staged.anomalies, inlined.anomalies) << label;
    expect_bits_equal(staged.result.bc, inlined.result.bc, label + " staged vs inline");
    expect_stats_equal(staged.forward, inlined.forward, label + " forward staged vs inline");
    expect_stats_equal(staged.backward, inlined.backward, label + " backward staged vs inline");
  }
}

TEST_F(DeterminismTest, MrbcIsThreadCountInvariant) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 16);
  // Grain 1 stages every multi-entry round through the ordered replay; eager
  // sync also routes intermediate-label staging through its side lists.
  const PolicyPin pins[] = {
      {partition::Policy::kCartesianVertexCut, 0x1d592df6e70ee70cull},
      {partition::Policy::kEdgeCutSrc, 0xc24c302ec66f457eull},
      {partition::Policy::kEdgeCutDst, 0x760b2f124460439cull},
      {partition::Policy::kGeneralVertexCut, 0xe84588a241ee0f9dull},
      {partition::Policy::kRandomEdge, 0x27e77c68a74f4980ull},
  };
  for (const auto& [policy, scores] : pins) {
    for (const std::size_t grain : {std::size_t{4}, std::size_t{1}}) {
      for (const bool delayed_sync : {true, false}) {
        const std::string base = "mrbc " + partition::to_string(policy) +
                                 " grain=" + std::to_string(grain) +
                                 " delayed_sync=" + std::to_string(delayed_sync);
        const auto reference = run_mrbc(g, sources, 1, false, grain, nullptr,
                                        comm::CodecMode::kRaw, delayed_sync, policy);
        EXPECT_EQ(reference.anomalies, 0u) << base;
        EXPECT_EQ(testing::score_hash(reference.result.bc), scores) << base;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
          const auto run = run_mrbc(g, sources, threads, true, grain, nullptr,
                                    comm::CodecMode::kRaw, delayed_sync, policy);
          const std::string label = base + " threads=" + std::to_string(threads);
          EXPECT_EQ(run.anomalies, reference.anomalies) << label;
          EXPECT_EQ(run.num_batches, reference.num_batches) << label;
          expect_bits_equal(run.result.bc, reference.result.bc, label);
          expect_stats_equal(run.forward, reference.forward, label + " forward");
          expect_stats_equal(run.backward, reference.backward, label + " backward");
        }
      }
    }
  }
}

TEST_F(DeterminismTest, SbbcIsThreadCountInvariant) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 6);
  const PolicyPin pins[] = {
      {partition::Policy::kCartesianVertexCut, 0x6b2597feeba8ade3ull},
      {partition::Policy::kEdgeCutSrc, 0x280044923698c546ull},
      {partition::Policy::kEdgeCutDst, 0xdd7fc31325143d6dull},
      {partition::Policy::kGeneralVertexCut, 0xe5ab6ed5fcd5ba64ull},
      {partition::Policy::kRandomEdge, 0xea97840ffd524599ull},
  };
  for (const auto& [policy, scores] : pins) {
    const auto reference = run_sbbc(g, sources, 1, false, std::size_t{1} << 30,
                                    comm::CodecMode::kRaw, baselines::Direction::kAuto, policy);
    EXPECT_EQ(testing::score_hash(reference.result.bc), scores) << partition::to_string(policy);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto run = run_sbbc(g, sources, threads, true, 2, comm::CodecMode::kRaw,
                                baselines::Direction::kAuto, policy);
      const std::string label =
          "sbbc " + partition::to_string(policy) + " threads=" + std::to_string(threads);
      expect_bits_equal(run.result.bc, reference.result.bc, label);
      expect_stats_equal(run.forward, reference.forward, label + " forward");
      expect_stats_equal(run.backward, reference.backward, label + " backward");
    }
  }
}

TEST_F(DeterminismTest, FaultInjectedRunReplaysIdenticallyAcrossThreadCounts) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 12);
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.03;
  plan.corrupt_rate = 0.03;
  plan.events.push_back({sim::FaultKind::kCrash, 5, 2});
  sim::FaultInjector injector(plan, 4);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  // Grain 1 stages every multi-entry round, so the rollback also restores
  // state between staged rounds.
  for (const std::size_t grain : {std::size_t{4}, std::size_t{1}}) {
    const auto reference = run_mrbc(g, sources, 1, false, grain, &injector);
    const auto total_ref = reference.total();
    const std::string base = "mrbc faulted grain=" + std::to_string(grain);
    EXPECT_EQ(total_ref.faults.crashes, 1u) << base;
    EXPECT_GT(total_ref.faults.checkpoint_bytes, 0u) << base;
    EXPECT_GT(total_ref.faults.drops + total_ref.faults.duplicates +
                  total_ref.faults.corruptions_detected,
              0u)
        << base;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto run = run_mrbc(g, sources, threads, true, grain, &injector);
      const std::string label = base + " threads=" + std::to_string(threads);
      EXPECT_EQ(run.anomalies, reference.anomalies) << label;
      expect_bits_equal(run.result.bc, reference.result.bc, label);
      expect_stats_equal(run.forward, reference.forward, label + " forward");
      expect_stats_equal(run.backward, reference.backward, label + " backward");
    }
    // And the recovered result is still correct, not merely consistent.
    mrbc::testing::expect_bc_equal(golden.bc, reference.result.bc, base);
  }
}

// ---- SBBC direction optimization (push vs pull vs auto) --------------------
// The pull drain's contract: it replays exactly the pushes the push drain
// would have generated, in the exact sequential push order, so EVERYTHING —
// scores, round counts, per-round message/byte/value logs — is bit-identical
// across Direction settings and thread counts. Grain 1 stages every
// multi-entry round, which is what makes the forced-kPull runs actually take
// the pull path round after round.

TEST_F(DeterminismTest, DirectionModesAreBitIdenticalForSbbc) {
  using baselines::Direction;
  const Graph g = det_graph();
  const auto sources = det_sources(g, 6);
  const auto reference =
      run_sbbc(g, sources, 1, false, 1, comm::CodecMode::kRaw, Direction::kPush);
  EXPECT_EQ(reference.forward_pull_rounds, 0u);
  for (const Direction dir : {Direction::kPull, Direction::kAuto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto run = run_sbbc(g, sources, threads, threads > 1, 1, comm::CodecMode::kRaw, dir);
      const std::string label = std::string("sbbc dir=") +
                                (dir == Direction::kPull ? "pull" : "auto") +
                                " threads=" + std::to_string(threads);
      if (dir == Direction::kPull) {
        EXPECT_GT(run.forward_pull_rounds, 0u) << label;
      }
      expect_bits_equal(run.result.bc, reference.result.bc, label);
      expect_stats_equal(run.forward, reference.forward, label + " forward");
      expect_stats_equal(run.backward, reference.backward, label + " backward");
    }
  }
}

// Each SBBC forward round appends the next frontier through its drain
// side, and every round's snapshot holds that list. The inline drain
// appends in push order; a staged round's per-range sides and a pull
// round's ordinals must merge back into exactly that order. The snapshot
// also holds the labels, whose struct padding is whatever a label's last
// copy left there, so the snapshot must not carry it.
TEST_F(DeterminismTest, SbbcSnapshotsMatchInlineDrain) {
  using baselines::Direction;
  const Graph g = det_graph();
  const auto sources = det_sources(g, 6);
  std::vector<std::uint32_t> inlined;
  run_sbbc(g, sources, 1, false, std::size_t{1} << 30, comm::CodecMode::kRaw, Direction::kPush,
           partition::Policy::kCartesianVertexCut, &inlined);
  ASSERT_FALSE(inlined.empty());
  for (const Direction dir : {Direction::kPush, Direction::kPull, Direction::kAuto}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      std::vector<std::uint32_t> staged;
      run_sbbc(g, sources, threads, threads > 1, 1, comm::CodecMode::kRaw, dir,
               partition::Policy::kCartesianVertexCut, &staged);
      EXPECT_EQ(staged, inlined) << "dir=" << static_cast<int>(dir) << " threads=" << threads;
    }
  }
}

TEST_F(DeterminismTest, CodecModesAreBitIdenticalForMrbc) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 16);
  const auto raw = run_mrbc(g, sources, 1, false, 4);
  for (comm::CodecMode mode : {comm::CodecMode::kMetadataOnly, comm::CodecMode::kFull}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto run = run_mrbc(g, sources, threads, threads > 1, 4, nullptr, mode);
      const std::string label = std::string("mrbc codec=") + comm::codec_mode_name(mode) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(run.anomalies, raw.anomalies) << label;
      expect_bits_equal(run.result.bc, raw.result.bc, label);
      expect_stats_equal_modulo_bytes(run.forward, raw.forward, label + " forward");
      expect_stats_equal_modulo_bytes(run.backward, raw.backward, label + " backward");
      // Compression must actually compress — strictly fewer wire bytes.
      EXPECT_LT(run.forward.bytes + run.backward.bytes, raw.forward.bytes + raw.backward.bytes)
          << label;
    }
  }
}

TEST_F(DeterminismTest, CodecModesAreBitIdenticalForSbbc) {
  const Graph g = det_graph();
  const auto sources = det_sources(g, 12);
  const auto raw = run_sbbc(g, sources, 1, false, 2);
  for (comm::CodecMode mode : {comm::CodecMode::kMetadataOnly, comm::CodecMode::kFull}) {
    const auto run = run_sbbc(g, sources, 1, false, 2, mode);
    const std::string label = std::string("sbbc codec=") + comm::codec_mode_name(mode);
    expect_bits_equal(run.result.bc, raw.result.bc, label);
    expect_stats_equal_modulo_bytes(run.forward, raw.forward, label + " forward");
    expect_stats_equal_modulo_bytes(run.backward, raw.backward, label + " backward");
    EXPECT_LT(run.forward.bytes + run.backward.bytes, raw.forward.bytes + raw.backward.bytes)
        << label;
  }
}

TEST_F(DeterminismTest, CodecModesReplayFaultScheduleIdentically) {
  // Drops, duplicates, corruption, and a crash + rollback replay: the
  // fault schedule keys off per-message RNG draws whose count does not
  // depend on payload bytes, so a compressed run must hit the exact same
  // faults, retransmits, and recovery path as the raw run — and land on
  // bit-identical scores.
  const Graph g = det_graph();
  const auto sources = det_sources(g, 12);
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.03;
  plan.corrupt_rate = 0.03;
  plan.events.push_back({sim::FaultKind::kCrash, 5, 2});
  sim::FaultInjector injector(plan, 4);

  const auto raw = run_mrbc(g, sources, 1, false, 4, &injector);
  EXPECT_EQ(raw.total().faults.crashes, 1u);
  for (comm::CodecMode mode : {comm::CodecMode::kMetadataOnly, comm::CodecMode::kFull}) {
    const auto run = run_mrbc(g, sources, 1, false, 4, &injector, mode);
    const std::string label = std::string("faulted codec=") + comm::codec_mode_name(mode);
    EXPECT_EQ(run.anomalies, raw.anomalies) << label;
    expect_bits_equal(run.result.bc, raw.result.bc, label);
    expect_stats_equal_modulo_bytes(run.forward, raw.forward, label + " forward");
    expect_stats_equal_modulo_bytes(run.backward, raw.backward, label + " backward");
  }
  const auto golden = baselines::brandes_bc_sources(g, sources);
  mrbc::testing::expect_bc_equal(golden.bc, raw.result.bc, "faulted codec determinism");
}

/// Allocates, fills with `fill` and frees blocks from 64 B to 1 MiB, so
/// the uninitialized allocations of a following run (the per-host label
/// arenas) are likely to land on memory holding that byte.
void churn_heap(std::uint8_t fill) {
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks;
  for (std::size_t size = 64; size <= (std::size_t{1} << 20); size *= 2) {
    for (int copy = 0; copy < 4; ++copy) {
      blocks.emplace_back(new std::uint8_t[size]);
      std::memset(blocks.back().get(), fill, size);
    }
  }
}

TEST_F(DeterminismTest, MrbcLoopSnapshotBytesDoNotDependOnHeapContents) {
  // The checkpoint contract is byte identity, not just equal scores: two
  // identical runs must hand the durable layer identical loop snapshots
  // however the heap they allocate from was used before.
  const Graph g = det_graph();
  const auto sources = det_sources(g, 12);
  auto capture = [&](std::uint8_t fill) {
    churn_heap(fill);
    std::vector<std::vector<std::uint8_t>> snapshots;
    core::MrbcOptions opts;
    opts.num_hosts = 4;
    opts.batch_size = 8;
    opts.cluster.threads = 1;
    opts.cluster.checkpoint_interval = 2;
    opts.cluster.on_checkpoint = [&](const sim::LoopCheckpoint& ck, const sim::RunStats&) {
      snapshots.push_back(ck.snapshot);
    };
    core::mrbc_bc(g, sources, opts);
    return snapshots;
  };
  const auto first = capture(0xA5);
  const auto second = capture(0x5A);
  ASSERT_GT(first.size(), 2u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i]) << "loop snapshot " << i << " differs between runs";
  }
}

TEST_F(DeterminismTest, IncrementalBcIsThreadCountInvariant) {
  auto run_stream = [](std::size_t threads) {
    stream::IncrementalBcOptions opts;
    opts.num_samples = 12;
    opts.seed = 7;
    opts.mrbc.num_hosts = 4;
    opts.mrbc.batch_size = 8;
    opts.mrbc.drain_grain = 4;
    opts.mrbc.cluster.threads = threads;
    opts.mrbc.cluster.parallel_hosts = threads > 1;
    stream::IncrementalBc inc(graph::erdos_renyi(60, 0.07, 19), opts);

    std::vector<std::vector<double>> score_history;
    std::vector<std::size_t> affected_history;
    stream::EdgeBatch b1;
    b1.insert(0, 30);
    b1.insert(12, 45);
    b1.erase(3, 4);
    stream::EdgeBatch b2;
    b2.insert(30, 0);
    b2.erase(0, 30);
    b2.insert(7, 52);
    for (const auto* batch : {&b1, &b2}) {
      const auto report = inc.apply(*batch);
      score_history.push_back(inc.scores());
      affected_history.push_back(report.affected_sources);
    }
    return std::make_pair(score_history, affected_history);
  };
  const auto [ref_scores, ref_affected] = run_stream(1);
  const auto [par_scores, par_affected] = run_stream(8);
  ASSERT_EQ(ref_scores.size(), par_scores.size());
  EXPECT_EQ(ref_affected, par_affected);
  for (std::size_t i = 0; i < ref_scores.size(); ++i) {
    expect_bits_equal(par_scores[i], ref_scores[i],
                      "incremental batch " + std::to_string(i));
  }
}

}  // namespace
}  // namespace mrbc
