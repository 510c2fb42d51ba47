// Validation of the three baseline BC implementations the paper evaluates
// against: SBBC (synchronous Brandes in the D-Galois model), ABBC
// (asynchronous shared-memory Brandes), and MFBC (sparse-matrix
// maximal-frontier BC), plus structural checks on their round behavior.

#include <gtest/gtest.h>

#include "baselines/abbc.h"
#include "baselines/brandes_seq.h"
#include "core/congest_mrbc.h"
#include "core/mrbc.h"
#include "baselines/mfbc.h"
#include "baselines/sbbc.h"
#include "graph/algorithms.h"
#include "test_helpers.h"

namespace mrbc {
namespace {

using baselines::abbc_bc;
using baselines::brandes_bc;
using baselines::brandes_bc_sources;
using baselines::mfbc_bc;
using baselines::sbbc_bc;
using graph::Graph;
using graph::VertexId;
using testing::expect_bc_equal;
using testing::expect_tables_equal;

std::vector<testing::NamedGraph> full_corpus() {
  auto corpus = testing::structured_corpus();
  auto rnd = testing::random_corpus();
  corpus.insert(corpus.end(), std::make_move_iterator(rnd.begin()),
                std::make_move_iterator(rnd.end()));
  return corpus;
}

TEST(BrandesSeq, DirectedPathClosedForm) {
  const VertexId n = 10;
  auto bc = brandes_bc(graph::path(n));
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_DOUBLE_EQ(bc[v], static_cast<double>(v) * (n - 1 - v));
  }
}

TEST(BrandesSeq, CompleteGraphHasZeroBc) {
  // Every pair is adjacent: no shortest path passes through a third vertex.
  for (double b : brandes_bc(graph::complete(7))) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(BrandesSeq, DiamondSplitsEqually) {
  // 0->{1,2}->3: each middle vertex carries half of the single (0,3) pair.
  auto bc = brandes_bc(graph::build_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  EXPECT_DOUBLE_EQ(bc[1], 0.5);
  EXPECT_DOUBLE_EQ(bc[2], 0.5);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[3], 0.0);
}

TEST(BrandesSeq, SourceSubsetSumsToFullBc) {
  Graph g = graph::erdos_renyi(30, 0.1, 5);
  std::vector<VertexId> all(30);
  for (VertexId v = 0; v < 30; ++v) all[v] = v;
  expect_bc_equal(brandes_bc(g), brandes_bc_sources(g, all).bc, "all-sources");
}

// ---- SBBC -----------------------------------------------------------------

TEST(Sbbc, MatchesBrandesOnCorpus) {
  for (const auto& [name, g] : full_corpus()) {
    if (g.num_vertices() < 2) continue;
    const auto sources = graph::sample_sources(g, std::min<VertexId>(g.num_vertices(), 6), 3);
    baselines::SbbcOptions opts;
    opts.collect_tables = true;
    auto run = sbbc_bc(g, sources, opts);
    auto golden = brandes_bc_sources(g, sources);
    expect_bc_equal(golden.bc, run.result.bc, "sbbc " + name);
    expect_tables_equal(golden, run.result, "sbbc tables " + name);
  }
}

class SbbcPartitionSweep
    : public ::testing::TestWithParam<std::tuple<partition::Policy, int>> {};

TEST_P(SbbcPartitionSweep, MatchesBrandes) {
  const auto [policy, hosts] = GetParam();
  Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 21});
  const auto sources = graph::sample_sources(g, 6, 9);
  baselines::SbbcOptions opts;
  opts.policy = policy;
  opts.num_hosts = static_cast<partition::HostId>(hosts);
  auto run = sbbc_bc(g, sources, opts);
  expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc,
                  partition::to_string(policy) + " hosts=" + std::to_string(hosts));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SbbcPartitionSweep,
    ::testing::Combine(::testing::Values(partition::Policy::kEdgeCutSrc,
                                         partition::Policy::kCartesianVertexCut,
                                         partition::Policy::kGeneralVertexCut),
                       ::testing::Values(1, 3, 8)));

TEST(Sbbc, RoundsScaleWithEccentricity) {
  // Level-by-level execution: ~2*ecc(s) rounds per source.
  Graph g = graph::bidirectional_path(40);
  const std::vector<VertexId> sources{0};  // eccentricity 39
  auto run = sbbc_bc(g, sources, {});
  const std::size_t rounds = run.forward.rounds + run.backward.rounds;
  EXPECT_GE(rounds, 2 * 39u);
  EXPECT_LE(rounds, 2 * 39u + 6);
}

TEST(Sbbc, ManyMoreRoundsThanMrbcOnHighDiameterGraphs) {
  // The paper's headline: MRBC executes ~14x fewer rounds than SBBC.
  Graph g = graph::road_grid(12, 12, 0.1, 3);
  const auto sources = graph::sample_sources(g, 8, 11);
  auto sbbc = sbbc_bc(g, sources, {});
  core::MrbcOptions mopts;
  mopts.batch_size = 8;
  auto mrbc = core::mrbc_bc(g, sources, mopts);
  EXPECT_GT(sbbc.total().rounds, 3 * mrbc.total().rounds);
}

// ---- ABBC -----------------------------------------------------------------

TEST(Abbc, MatchesBrandesOnCorpus) {
  for (const auto& [name, g] : full_corpus()) {
    if (g.num_vertices() < 2) continue;
    const auto sources = graph::sample_sources(g, std::min<VertexId>(g.num_vertices(), 6), 3);
    baselines::AbbcOptions opts;
    opts.collect_tables = true;
    auto run = abbc_bc(g, sources, opts);
    auto golden = brandes_bc_sources(g, sources);
    expect_bc_equal(golden.bc, run.result.bc, "abbc " + name);
    expect_tables_equal(golden, run.result, "abbc tables " + name);
  }
}

class AbbcChunkSweep : public ::testing::TestWithParam<int> {};

TEST_P(AbbcChunkSweep, ChunkSizeDoesNotChangeResults) {
  Graph g = graph::kronecker(7, 4.0, 13);
  const auto sources = graph::sample_sources(g, 8, 5);
  baselines::AbbcOptions opts;
  opts.chunk_size = static_cast<std::size_t>(GetParam());
  auto run = abbc_bc(g, sources, opts);
  expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc,
                  "chunk=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbbcChunkSweep, ::testing::Values(1, 8, 64, 1024));

// ---- MFBC -----------------------------------------------------------------

TEST(Mfbc, MatchesBrandesOnCorpus) {
  for (const auto& [name, g] : full_corpus()) {
    if (g.num_vertices() < 2) continue;
    const auto sources = graph::sample_sources(g, std::min<VertexId>(g.num_vertices(), 6), 3);
    baselines::MfbcOptions opts;
    opts.collect_tables = true;
    auto run = mfbc_bc(g, sources, opts);
    auto golden = brandes_bc_sources(g, sources);
    expect_bc_equal(golden.bc, run.result.bc, "mfbc " + name);
    expect_tables_equal(golden, run.result, "mfbc tables " + name);
  }
}

class MfbcConfigSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MfbcConfigSweep, HostAndBatchInvariance) {
  const auto [hosts, batch] = GetParam();
  Graph g = graph::erdos_renyi(50, 0.08, 29);
  const auto sources = graph::sample_sources(g, 8, 7);
  baselines::MfbcOptions opts;
  opts.num_hosts = static_cast<std::uint32_t>(hosts);
  opts.batch_size = static_cast<std::uint32_t>(batch);
  auto run = mfbc_bc(g, sources, opts);
  expect_bc_equal(brandes_bc_sources(g, sources).bc, run.result.bc,
                  "hosts=" + std::to_string(hosts) + " batch=" + std::to_string(batch));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MfbcConfigSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 4, 8)));

TEST(Mfbc, ForwardIterationsTrackBfsLevels) {
  Graph g = graph::bidirectional_path(20);
  auto run = mfbc_bc(g, {0}, {});
  // Bellman-Ford over an unweighted path from vertex 0: 19 productive
  // iterations plus one empty terminating iteration.
  EXPECT_GE(run.forward.rounds, 19u);
  EXPECT_LE(run.forward.rounds, 21u);
}

TEST(Mfbc, AllGatherVolumeExceedsMrbcPointToPoint) {
  // The replicated-frontier allgather is why MFBC is communication-bound.
  Graph g = graph::rmat({.scale = 8, .edge_factor = 6.0, .seed = 31});
  const auto sources = graph::sample_sources(g, 8, 13);
  baselines::MfbcOptions mf;
  mf.num_hosts = 8;
  mf.batch_size = 8;
  core::MrbcOptions mr;
  mr.num_hosts = 8;
  mr.batch_size = 8;
  auto mfbc = mfbc_bc(g, sources, mf);
  auto mrbc = core::mrbc_bc(g, sources, mr);
  EXPECT_GT(mfbc.total().bytes, mrbc.total().bytes / 2);
}

// ---- Cross-algorithm agreement ---------------------------------------------

TEST(AllAlgorithms, AgreeOnWebCrawlLikeGraph) {
  Graph g = graph::web_crawl_like(6, 4.0, 2, 6, 3);
  const auto sources = graph::sample_sources(g, 10, 17);
  auto golden = brandes_bc_sources(g, sources);
  expect_bc_equal(golden.bc, sbbc_bc(g, sources, {}).result.bc, "sbbc");
  expect_bc_equal(golden.bc, abbc_bc(g, sources, {}).result.bc, "abbc");
  expect_bc_equal(golden.bc, mfbc_bc(g, sources, {}).result.bc, "mfbc");
  expect_bc_equal(golden.bc, core::mrbc_bc(g, sources, {}).result.bc, "mrbc");
  expect_bc_equal(golden.bc, core::congest_mrbc(g, sources).result.bc, "congest");
}

}  // namespace
}  // namespace mrbc
