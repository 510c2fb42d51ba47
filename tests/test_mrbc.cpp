// Validation of the production-path MRBC (D-Galois execution model over the
// BSP cluster simulator) against sequential Brandes and the CONGEST
// reference, sweeping partition policies, host counts, and batch sizes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/brandes_seq.h"
#include "core/congest_mrbc.h"
#include "core/mrbc.h"
#include "engine/fault.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace mrbc {
namespace {

using baselines::brandes_bc_sources;
using core::MrbcOptions;
using core::mrbc_bc;
using graph::Graph;
using graph::VertexId;
using partition::Policy;
using testing::expect_bc_equal;
using testing::expect_tables_equal;
using testing::score_hash;

TEST(Mrbc, MatchesBrandesOnCorpusDefaultOptions) {
  for (const auto& [name, g] : testing::structured_corpus()) {
    if (g.num_vertices() < 2) continue;
    const auto sources = graph::sample_sources(g, std::min<VertexId>(g.num_vertices(), 6), 3);
    MrbcOptions opts;
    opts.collect_tables = true;
    auto run = mrbc_bc(g, sources, opts);
    EXPECT_EQ(run.anomalies, 0u) << name;
    auto golden = brandes_bc_sources(g, sources);
    expect_bc_equal(golden.bc, run.result.bc, "mrbc " + name);
    expect_tables_equal(golden, run.result, "mrbc tables " + name);
  }
}

TEST(Mrbc, MatchesBrandesOnRandomCorpus) {
  for (const auto& [name, g] : testing::random_corpus()) {
    const auto sources = graph::sample_sources(g, 8, 5);
    MrbcOptions opts;
    opts.num_hosts = 5;
    auto run = mrbc_bc(g, sources, opts);
    EXPECT_EQ(run.anomalies, 0u) << name;
    expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc, "mrbc " + name);
  }
}

// Policy x host-count sweep on one nontrivial graph.
class MrbcPartitionSweep : public ::testing::TestWithParam<std::tuple<Policy, int>> {};

TEST_P(MrbcPartitionSweep, MatchesBrandes) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 21});
  const auto sources = graph::sample_sources(g, 8, 9);
  MrbcOptions opts;
  opts.policy = policy;
  opts.num_hosts = static_cast<partition::HostId>(hosts);
  auto run = mrbc_bc(g, sources, opts);
  EXPECT_EQ(run.anomalies, 0u);
  expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc,
                  partition::to_string(policy) + " hosts=" + std::to_string(hosts));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrbcPartitionSweep,
    ::testing::Combine(::testing::Values(Policy::kEdgeCutSrc, Policy::kEdgeCutDst,
                                         Policy::kCartesianVertexCut, Policy::kGeneralVertexCut,
                                         Policy::kRandomEdge),
                       ::testing::Values(1, 2, 4, 7, 16)));

// Batch-size sweep (Figure 1's independent variable): results must be
// invariant; rounds must shrink as k grows.
class MrbcBatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(MrbcBatchSweep, ResultsInvariantUnderBatchSize) {
  const int k = GetParam();
  Graph g = graph::web_crawl_like(6, 4.0, 2, 10, 77);
  const auto sources = graph::sample_sources(g, 16, 13);
  MrbcOptions opts;
  opts.batch_size = static_cast<std::uint32_t>(k);
  auto run = mrbc_bc(g, sources, opts);
  EXPECT_EQ(run.anomalies, 0u);
  expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc,
                  "batch=" + std::to_string(k));
  EXPECT_EQ(run.num_batches, (sources.size() + k - 1) / k);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrbcBatchSweep, ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(Mrbc, LargerBatchesReduceRounds) {
  Graph g = graph::web_crawl_like(6, 4.0, 2, 12, 31);
  const auto sources = graph::sample_sources(g, 16, 17);
  auto rounds_for = [&](std::uint32_t k) {
    MrbcOptions opts;
    opts.batch_size = k;
    auto run = mrbc_bc(g, sources, opts);
    return run.forward.rounds + run.backward.rounds;
  };
  const auto r1 = rounds_for(1);
  const auto r4 = rounds_for(4);
  const auto r16 = rounds_for(16);
  EXPECT_LT(r16, r4);
  EXPECT_LT(r4, r1);
}

TEST(Mrbc, DelayedSyncAblationPreservesResultsAndSavesVolume) {
  Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 41});
  const auto sources = graph::sample_sources(g, 8, 19);
  MrbcOptions delayed;
  MrbcOptions eager;
  eager.delayed_sync = false;
  auto run_d = mrbc_bc(g, sources, delayed);
  auto run_e = mrbc_bc(g, sources, eager);
  expect_bc_equal(run_d.result.bc, run_e.result.bc, "delayed vs eager");
  // The optimization must strictly reduce communication volume.
  EXPECT_LT(run_d.total().bytes, run_e.total().bytes);
  // Round counts are a property of the algorithm, not the sync policy.
  EXPECT_EQ(run_d.forward.rounds, run_e.forward.rounds);
  EXPECT_EQ(run_d.backward.rounds, run_e.backward.rounds);
}

TEST(Mrbc, RoundBoundTwoKPlusH) {
  // Lemma 8 + Section 7: at most ~2(k + H) rounds per batch.
  for (const auto& [name, g] : testing::random_corpus()) {
    const auto sources = graph::sample_sources(g, 8, 23);
    MrbcOptions opts;
    opts.batch_size = 8;
    opts.collect_tables = true;
    auto run = mrbc_bc(g, sources, opts);
    const std::uint32_t h = core::max_finite_distance(run.result.dist);
    const auto k = static_cast<std::uint32_t>(sources.size());
    EXPECT_LE(run.forward.rounds, k + h + 2) << name;
    EXPECT_LE(run.backward.rounds, k + h + 2) << name;
  }
}

TEST(Mrbc, BspRoundsTrackCongestRoundsPlusShift) {
  // The BSP path fires each label exactly one round after the CONGEST
  // schedule (the reduce-hop shift documented in docs/ARCHITECTURE.md), so
  // its forward phase finishes within a few rounds of the CONGEST
  // reference on any graph.
  for (const auto& [name, g] : testing::random_corpus()) {
    const auto sources = graph::sample_sources(g, 8, 3);
    auto congest = core::congest_mrbc(g, sources);
    MrbcOptions opts;
    opts.batch_size = 8;
    auto bsp = mrbc_bc(g, sources, opts);
    EXPECT_GE(bsp.forward.rounds + 1, congest.metrics.forward_rounds) << name;
    EXPECT_LE(bsp.forward.rounds, congest.metrics.forward_rounds + 3) << name;
  }
}

TEST(Mrbc, AgreesWithCongestReference) {
  Graph g = graph::erdos_renyi(60, 0.08, 101);
  const auto sources = graph::sample_sources(g, 10, 29);
  MrbcOptions opts;
  opts.collect_tables = true;
  auto bsp = mrbc_bc(g, sources, opts);
  auto congest = core::congest_mrbc(g, sources);
  expect_bc_equal(congest.result.bc, bsp.result.bc, "bsp vs congest");
  expect_tables_equal(congest.result, bsp.result, "bsp vs congest tables");
}

TEST(Mrbc, ThreadedHostsMatchSequentialHosts) {
  Graph g = graph::rmat({.scale = 6, .edge_factor = 5.0, .seed = 55});
  const auto sources = graph::sample_sources(g, 6, 31);
  MrbcOptions seq;
  MrbcOptions par;
  par.cluster.parallel_hosts = true;
  auto run_s = mrbc_bc(g, sources, seq);
  auto run_p = mrbc_bc(g, sources, par);
  expect_bc_equal(run_s.result.bc, run_p.result.bc, "threaded vs sequential");
  EXPECT_EQ(run_s.forward.rounds, run_p.forward.rounds);
  EXPECT_EQ(run_s.total().bytes, run_p.total().bytes);
}

TEST(Mrbc, SourceEqualsIsolatedVertex) {
  // A source with no edges: nothing propagates, zero BC everywhere.
  Graph g = graph::build_graph(6, {{1, 2}, {2, 3}});
  auto run = mrbc_bc(g, {0}, {});
  for (double b : run.result.bc) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Mrbc, RepeatedRunsAreDeterministic) {
  Graph g = graph::kronecker(6, 4.0, 61);
  const auto sources = graph::sample_sources(g, 6, 37);
  auto r1 = mrbc_bc(g, sources, {});
  auto r2 = mrbc_bc(g, sources, {});
  EXPECT_EQ(r1.result.bc, r2.result.bc);
  EXPECT_EQ(r1.total().bytes, r2.total().bytes);
  EXPECT_EQ(r1.total().messages, r2.total().messages);
}

// ---- Pinned schedule ----------------------------------------------------------

struct ScheduleCase {
  bool web;  ///< web_crawl_like with tails, else RMAT scale 9
  std::uint32_t batch;
  bool delayed;
  std::size_t forward_rounds, backward_rounds, messages, bytes, values;
  std::uint64_t scores;
};

std::ostream& operator<<(std::ostream& os, const ScheduleCase& c) {
  return os << "{" << (c.web ? "true" : "false") << ", " << c.batch << ", "
            << (c.delayed ? "true" : "false") << ", " << c.forward_rounds << ", "
            << c.backward_rounds << ", " << c.messages << ", " << c.bytes << ", " << c.values
            << ", 0x" << std::hex << c.scores << std::dec << "ull}";
}

/// Phase cursor and loop round of the MRBC snapshot at `path` (meta
/// section: fingerprint, batch cursor, phase; loop section: round first).
std::pair<std::uint32_t, std::uint64_t> snapshot_position(const std::string& path) {
  const sim::SnapshotReader reader = sim::SnapshotReader::from_file(path);
  const auto& meta_bytes = reader.section(sim::kSectionMeta);
  util::RecvBuffer meta(meta_bytes.data(), meta_bytes.size());
  meta.read<std::uint32_t>();  // fingerprint
  meta.read<std::uint64_t>();  // batch cursor
  const auto phase = meta.read<std::uint32_t>();
  constexpr std::uint32_t kLoopSection = 4;
  if (!reader.has(kLoopSection)) return {phase, 0};
  const auto& loop_bytes = reader.section(kLoopSection);
  util::RecvBuffer loop(loop_bytes.data(), loop_bytes.size());
  return {phase, loop.read<std::uint64_t>()};
}

/// Rounds of each BSP loop in a phase's round log (a loop starts at round 1).
std::vector<std::size_t> loop_rounds(const std::vector<sim::RoundLogEntry>& log) {
  std::vector<std::size_t> rounds;
  for (const sim::RoundLogEntry& e : log) {
    if (e.round == 1) rounds.push_back(0);
    rounds.back() = e.round;
  }
  return rounds;
}

/// Durable writes up to the first snapshot taken after a backward round
/// has run (0 if there is none): each BSP loop writes when it starts and
/// every `interval` rounds, and each finished batch writes once more.
std::size_t writes_to_mid_backward(const core::MrbcRun& logged, std::size_t interval) {
  const std::vector<std::size_t> fwd = loop_rounds(logged.forward.round_log);
  const std::vector<std::size_t> bwd = loop_rounds(logged.backward.round_log);
  std::size_t writes = 0;
  for (std::size_t b = 0; b < bwd.size(); ++b) {
    writes += 1 + fwd[b] / interval + 1;
    if (bwd[b] >= interval) return writes + 1;
    writes += 1;
  }
  return 0;
}

TEST(MrbcSchedule, RoundsTrafficAndScoresArePinned) {
  // Round counts, sync traffic and score bits of the delayed-sync schedule
  // and of its eager ablation, on a long-tail and a low-diameter input, at
  // batch sizes on both sides of one and two 64-source words. A run resumed
  // from a mid-backward durable snapshot must reproduce all of them. Runs
  // that crash — in a forward phase, and in a resumed backward phase — and
  // roll back must reproduce the rounds and scores (their traffic adds the
  // replayed rounds and the fault framing). On a mismatch the observed row
  // is printed in table syntax.
  const Graph web = graph::web_crawl_like(7, 4.0, 4, 24, 71);
  const Graph rmat = graph::rmat({.scale = 9, .edge_factor = 8.0, .seed = 73});
  const ScheduleCase cases[] = {
      // web, batch, delayed, forward_rounds, backward_rounds, messages,
      // bytes, values, scores
      {true, 1, true, 1474, 1409, 1998, 159366, 6485, 0xc6cc7be4d12204dull},
      {true, 17, true, 166, 162, 1223, 155983, 6669, 0x2dac323749124a9cull},
      {true, 64, true, 108, 106, 1055, 159211, 6675, 0x3e536bbb4beb6237ull},
      {true, 65, true, 80, 79, 1036, 159248, 6680, 0x1c1211c21359a12bull},
      {true, 1, false, 1474, 1409, 1998, 176979, 6485, 0xc6cc7be4d12204dull},
      {true, 17, false, 166, 162, 1227, 178919, 7137, 0x2dac323749124a9cull},
      {true, 64, false, 108, 106, 1056, 182358, 6891, 0x3e536bbb4beb6237ull},
      {true, 65, false, 80, 79, 1037, 182520, 6908, 0x1c1211c21359a12bull},
      {false, 1, true, 374, 309, 3886, 1352314, 67273, 0x8402dab43705395dull},
      {false, 17, true, 82, 78, 1434, 1570754, 70218, 0x94300651127381d9ull},
      {false, 64, true, 69, 67, 1280, 1721412, 69971, 0xcf23cd3f2f74413ull},
      {false, 65, true, 64, 63, 1237, 1731117, 70023, 0x5123034a32a10f2bull},
      {false, 1, false, 374, 309, 3886, 1827664, 67273, 0x8402dab43705395dull},
      {false, 17, false, 82, 78, 1434, 2288589, 73446, 0x94300651127381d9ull},
      {false, 64, false, 69, 67, 1280, 2535888, 71232, 0xcf23cd3f2f74413ull},
      {false, 65, false, 64, 63, 1237, 2550671, 71295, 0x5123034a32a10f2bull},
  };
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / "mrbc_schedule_pin";
  const std::string file = (dir / "mrbc.ckpt").string();
  const std::string saved = (dir / "mid_backward.ckpt").string();
  for (const ScheduleCase& c : cases) {
    const Graph& g = c.web ? web : rmat;
    const auto sources = graph::sample_sources(g, 65, 79);
    MrbcOptions opts;
    opts.num_hosts = 4;
    opts.batch_size = c.batch;
    opts.delayed_sync = c.delayed;
    const std::string label = std::string(c.web ? "web" : "rmat9") + " batch=" +
                              std::to_string(c.batch) + (c.delayed ? " delayed" : " eager");
    auto expect_pinned = [&](const core::MrbcRun& run, const std::string& how) {
      ScheduleCase o = c;
      o.forward_rounds = run.forward.rounds;
      o.backward_rounds = run.backward.rounds;
      o.messages = run.total().messages;
      o.bytes = run.total().bytes;
      o.values = run.total().values;
      o.scores = score_hash(run.result.bc);
      EXPECT_FALSE(run.halted) << label << " " << how;
      EXPECT_EQ(run.anomalies, 0u) << label << " " << how;
      EXPECT_TRUE(o.forward_rounds == c.forward_rounds &&
                  o.backward_rounds == c.backward_rounds && o.messages == c.messages &&
                  o.bytes == c.bytes && o.values == c.values && o.scores == c.scores)
          << label << " " << how << ": observed " << o;
    };
    auto expect_rounds_and_scores = [&](const core::MrbcRun& run, const std::string& how) {
      EXPECT_EQ(run.anomalies, 0u) << label << " " << how;
      EXPECT_EQ(run.forward.rounds, c.forward_rounds) << label << " " << how;
      EXPECT_EQ(run.backward.rounds, c.backward_rounds) << label << " " << how;
      EXPECT_EQ(score_hash(run.result.bc), c.scores) << label << " " << how;
    };

    MrbcOptions logged = opts;
    logged.cluster.record_round_log = true;
    const core::MrbcRun plain = mrbc_bc(g, sources, logged);
    expect_pinned(plain, "plain");

    // Halt at the first durable snapshot taken after a backward round has
    // run, then resume to the end from the file alone.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    MrbcOptions dopts = opts;
    dopts.checkpoint_dir = dir.string();
    dopts.cluster.checkpoint_interval = 4;
    dopts.halt_after_checkpoints = writes_to_mid_backward(plain, 4);
    ASSERT_NE(dopts.halt_after_checkpoints, 0u) << label << ": no backward phase of 4 rounds";
    ASSERT_TRUE(mrbc_bc(g, sources, dopts).halted) << label;
    const auto [phase, halt_round] = snapshot_position(file);
    ASSERT_EQ(phase, 1u) << label;
    ASSERT_EQ(halt_round, 4u) << label;
    std::filesystem::copy_file(file, saved);
    dopts.halt_after_checkpoints = 0;
    dopts.resume = true;
    expect_pinned(mrbc_bc(g, sources, dopts), "resumed");

    // The same snapshot resumed once more, crashing one round in: the
    // rollback restores the backward phase from the snapshot itself.
    std::filesystem::copy_file(saved, file, std::filesystem::copy_options::overwrite_existing);
    sim::FaultPlan resume_crash;
    resume_crash.crash_round = static_cast<std::uint32_t>(halt_round + 1);
    resume_crash.crash_host = 1;
    sim::FaultInjector resume_injector(resume_crash, opts.num_hosts);
    MrbcOptions ropts = dopts;
    ropts.cluster.fault = &resume_injector;
    const core::MrbcRun resumed_crash = mrbc_bc(g, sources, ropts);
    EXPECT_EQ(resumed_crash.backward.faults.crashes, 1u) << label;
    expect_rounds_and_scores(resumed_crash, "resumed crash");

    // A crash in the first forward phase, rolled back and replayed.
    sim::FaultPlan plan;
    plan.crash_round = 3;
    plan.crash_host = 1;
    sim::FaultInjector injector(plan, opts.num_hosts);
    MrbcOptions fopts = opts;
    fopts.cluster.fault = &injector;
    fopts.cluster.checkpoint_interval = 2;
    const core::MrbcRun crashed = mrbc_bc(g, sources, fopts);
    EXPECT_EQ(crashed.forward.faults.crashes, 1u) << label;
    expect_rounds_and_scores(crashed, "crash");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mrbc
