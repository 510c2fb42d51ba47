// Differential fuzzing: randomized graphs x randomized execution
// configurations, every result checked against sequential Brandes. This is
// the widest net for pipelining/synchronization bugs — any divergence
// between the distributed schedules and the golden model fails loudly with
// the reproducing seed in the test name.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "baselines/brandes_seq.h"
#include "baselines/mfbc.h"
#include "baselines/sbbc.h"
#include "core/congest_mrbc.h"
#include "core/mrbc.h"
#include "engine/fault.h"
#include "engine/recovery.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "stream/incremental_bc.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace mrbc {
namespace {

using graph::Graph;
using graph::VertexId;

/// Draws a random graph from a random family.
Graph random_graph(util::Xoshiro256& rng) {
  switch (rng.next_bounded(6)) {
    case 0:
      return graph::erdos_renyi(20 + static_cast<VertexId>(rng.next_bounded(60)),
                                0.02 + 0.2 * rng.next_double(), rng.next());
    case 1:
      return graph::rmat({.scale = 5 + static_cast<int>(rng.next_bounded(3)),
                          .edge_factor = 2.0 + 6.0 * rng.next_double(),
                          .seed = rng.next()});
    case 2:
      return graph::road_grid(3 + static_cast<VertexId>(rng.next_bounded(8)),
                              3 + static_cast<VertexId>(rng.next_bounded(8)),
                              0.2 * rng.next_double(), rng.next());
    case 3:
      return graph::web_crawl_like(5, 3.0 + 3.0 * rng.next_double(),
                                   static_cast<VertexId>(rng.next_bounded(4)),
                                   1 + static_cast<VertexId>(rng.next_bounded(12)), rng.next());
    case 4:
      return graph::random_dag(20 + static_cast<VertexId>(rng.next_bounded(40)),
                               0.05 + 0.15 * rng.next_double(), rng.next());
    default:
      return graph::strongly_connected_overlay(
          graph::erdos_renyi(30 + static_cast<VertexId>(rng.next_bounded(40)),
                             0.03 * rng.next_double(), rng.next()),
          rng.next());
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, MrbcMatchesBrandes) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x9e37 + 1);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(12));
  const auto sources = graph::sample_sources(g, k, rng.next(), rng.next_bool(0.5));
  const auto golden = baselines::brandes_bc_sources(g, sources);

  core::MrbcOptions opts;
  opts.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(12));
  opts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(16));
  opts.delayed_sync = rng.next_bool(0.8);
  const partition::Policy policies[] = {
      partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
      partition::Policy::kCartesianVertexCut, partition::Policy::kGeneralVertexCut,
      partition::Policy::kRandomEdge};
  opts.policy = policies[rng.next_bounded(5)];

  auto run = core::mrbc_bc(g, sources, opts);
  EXPECT_EQ(run.anomalies, 0u) << "hosts=" << opts.num_hosts << " batch=" << opts.batch_size
                               << " policy=" << partition::to_string(opts.policy);
  testing::expect_bc_equal(golden.bc, run.result.bc,
                           "fuzz mrbc seed=" + std::to_string(GetParam()));
}

TEST_P(DifferentialFuzz, OtherEnginesMatchBrandes) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x7f4a + 3);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(8));
  const auto sources = graph::sample_sources(g, k, rng.next(), true);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  auto congest = core::congest_mrbc(g, sources);
  EXPECT_EQ(congest.metrics.anomalies, 0u);
  testing::expect_bc_equal(golden.bc, congest.result.bc,
                           "fuzz congest seed=" + std::to_string(GetParam()));

  baselines::SbbcOptions sopts;
  sopts.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(8));
  testing::expect_bc_equal(golden.bc, baselines::sbbc_bc(g, sources, sopts).result.bc,
                           "fuzz sbbc seed=" + std::to_string(GetParam()));

  baselines::MfbcOptions fopts;
  fopts.num_hosts = 1 + static_cast<std::uint32_t>(rng.next_bounded(8));
  fopts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(8));
  testing::expect_bc_equal(golden.bc, baselines::mfbc_bc(g, sources, fopts).result.bc,
                           "fuzz mfbc seed=" + std::to_string(GetParam()));
}

TEST_P(DifferentialFuzz, FaultScheduleMatchesBrandes) {
  // Randomized fault schedules (drops, duplicates, corruption, stragglers,
  // an optional crash) with recovery enabled must be invisible in the
  // output of MRBC, SBBC and MFBC, each under its own fresh injector: BC
  // equals sequential Brandes bit-for-tolerance, and the MRBC pipelining
  // invariants hold (anomalies == 0 means no label ever arrived outside its
  // prescribed round despite the injected faults).
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x51ed + 7);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(8));
  const auto sources = graph::sample_sources(g, k, rng.next(), true);
  const auto golden = baselines::brandes_bc_sources(g, sources);

  sim::FaultPlan plan;
  plan.seed = rng.next();
  plan.drop_rate = 0.4 * rng.next_double();
  plan.duplicate_rate = 0.3 * rng.next_double();
  plan.corrupt_rate = 0.3 * rng.next_double();
  plan.straggler_rate = 0.5 * rng.next_double();
  std::uint32_t crash_at = 0;
  if (rng.next_bool(0.6)) {
    crash_at = 1 + static_cast<std::uint32_t>(rng.next_bounded(12));
    plan.events.push_back({sim::FaultKind::kCrash, crash_at,
                           static_cast<partition::HostId>(rng.next_bounded(8))});
  }
  const auto checkpoint_interval = 1 + rng.next_bounded(8);

  core::MrbcOptions mopts;
  mopts.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(8));
  mopts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(12));
  mopts.delayed_sync = rng.next_bool(0.8);
  sim::FaultInjector mrbc_injector(plan, mopts.num_hosts);
  mopts.cluster.fault = &mrbc_injector;
  mopts.cluster.checkpoint_interval = checkpoint_interval;
  auto run = core::mrbc_bc(g, sources, mopts);
  EXPECT_EQ(run.anomalies, 0u) << "seed=" << GetParam() << " hosts=" << mopts.num_hosts
                               << " drop=" << plan.drop_rate << " crash=" << crash_at;
  testing::expect_bc_equal(golden.bc, run.result.bc,
                           "fuzz mrbc faults seed=" + std::to_string(GetParam()));

  baselines::SbbcOptions sopts;
  sopts.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(8));
  sim::FaultInjector sbbc_injector(plan, sopts.num_hosts);  // fresh crash arming
  sopts.cluster.fault = &sbbc_injector;
  sopts.cluster.checkpoint_interval = checkpoint_interval;
  testing::expect_bc_equal(golden.bc, baselines::sbbc_bc(g, sources, sopts).result.bc,
                           "fuzz sbbc faults seed=" + std::to_string(GetParam()));

  baselines::MfbcOptions fopts;
  fopts.num_hosts = 1 + static_cast<std::uint32_t>(rng.next_bounded(8));
  fopts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(8));
  // A legal replication: a power of two dividing num_hosts (<= 8).
  fopts.replication = 1;
  for (auto draws = rng.next_bounded(4);
       draws > 0 && fopts.num_hosts % (2 * fopts.replication) == 0; --draws) {
    fopts.replication *= 2;
  }
  sim::FaultInjector mfbc_injector(plan, fopts.num_hosts);
  fopts.fault = &mfbc_injector;
  testing::expect_bc_equal(golden.bc, baselines::mfbc_bc(g, sources, fopts).result.bc,
                           "fuzz mfbc faults seed=" + std::to_string(GetParam()) +
                               " hosts=" + std::to_string(fopts.num_hosts) +
                               " c=" + std::to_string(fopts.replication));
}

TEST_P(DifferentialFuzz, CodecModesAreBitIdenticalAcrossConfigs) {
  // Wire compression must be invisible to everything except byte counts:
  // random graphs x random configs (hosts, batching, partition policy,
  // optional fault schedule) run under kRaw / kMetadataOnly / kFull must
  // produce bit-identical BC scores, round counts, message/value counts,
  // and fault-injection draws (drops, retransmits, crash recovery).
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0xC0DE + 17);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(8));
  const auto sources = graph::sample_sources(g, k, rng.next(), true);

  core::MrbcOptions opts;
  opts.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(8));
  opts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(12));
  opts.delayed_sync = rng.next_bool(0.8);
  const partition::Policy policies[] = {
      partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
      partition::Policy::kCartesianVertexCut, partition::Policy::kGeneralVertexCut,
      partition::Policy::kRandomEdge};
  opts.policy = policies[rng.next_bounded(5)];

  sim::FaultPlan plan;
  plan.seed = rng.next();
  const bool faulted = rng.next_bool(0.5);
  if (faulted) {
    plan.drop_rate = 0.3 * rng.next_double();
    plan.duplicate_rate = 0.2 * rng.next_double();
    plan.corrupt_rate = 0.2 * rng.next_double();
    if (rng.next_bool(0.5)) {
      plan.events.push_back({sim::FaultKind::kCrash,
                             1 + static_cast<std::uint32_t>(rng.next_bounded(10)),
                             static_cast<partition::HostId>(rng.next_bounded(8))});
    }
  }

  auto run_mode = [&](comm::CodecMode mode) {
    sim::FaultInjector injector(plan, opts.num_hosts);
    core::MrbcOptions o = opts;
    o.cluster.codec = mode;
    if (faulted) {
      o.cluster.fault = &injector;
      o.cluster.checkpoint_interval = 2;
    }
    return core::mrbc_bc(g, sources, o);
  };

  const auto raw = run_mode(comm::CodecMode::kRaw);
  for (comm::CodecMode mode : {comm::CodecMode::kMetadataOnly, comm::CodecMode::kFull}) {
    const auto run = run_mode(mode);
    const std::string label = std::string("seed=") + std::to_string(GetParam()) +
                              " codec=" + comm::codec_mode_name(mode) +
                              (faulted ? " faulted" : "");
    EXPECT_EQ(run.anomalies, raw.anomalies) << label;
    ASSERT_EQ(run.result.bc.size(), raw.result.bc.size()) << label;
    for (std::size_t v = 0; v < raw.result.bc.size(); ++v) {
      std::uint64_t ba = 0, bb = 0;
      std::memcpy(&ba, &run.result.bc[v], sizeof(ba));
      std::memcpy(&bb, &raw.result.bc[v], sizeof(bb));
      ASSERT_EQ(ba, bb) << label << " vertex=" << v;
    }
    const auto a = run.total();
    const auto b = raw.total();
    EXPECT_EQ(a.rounds, b.rounds) << label;
    EXPECT_EQ(a.messages, b.messages) << label;
    EXPECT_EQ(a.values, b.values) << label;
    EXPECT_EQ(a.faults.drops, b.faults.drops) << label;
    EXPECT_EQ(a.faults.duplicates, b.faults.duplicates) << label;
    EXPECT_EQ(a.faults.corruptions_detected, b.faults.corruptions_detected) << label;
    EXPECT_EQ(a.faults.retransmits, b.faults.retransmits) << label;
    EXPECT_EQ(a.faults.crashes, b.faults.crashes) << label;
    EXPECT_LE(a.bytes, b.bytes) << label << " (compression made the wire bigger)";
  }
}

TEST_P(DifferentialFuzz, IncrementalBcMatchesBrandesUnderChurn) {
  // Churn fuzzer: random insert/delete batches against IncrementalBc, with
  // an independently maintained reference edge set rebuilt from scratch
  // through build_graph + brandes_bc_sources after EVERY batch. Deletions
  // draw from the live edge set, so bridge removals that disconnect
  // reachable regions (the hard case for dependency subtraction — scores
  // must drop to the disconnected values, not go stale) occur routinely.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0x2b5c + 11);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const VertexId n = g.num_vertices();

  // Reference mirror of the stream's semantics: a plain set of live edges.
  std::set<graph::Edge> reference;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.out_neighbors(u)) reference.insert({u, v});
  }

  stream::IncrementalBcOptions opts;
  opts.num_samples =
      rng.next_bool(0.2) ? n : 1 + static_cast<std::uint32_t>(rng.next_bounded(16));
  opts.seed = rng.next();
  rng.next_double();  // unused draw: it keeps each seed's later draws, and batches, fixed
  opts.mrbc.num_hosts = 1 + static_cast<partition::HostId>(rng.next_bounded(8));
  opts.mrbc.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(12));
  opts.mrbc.delayed_sync = rng.next_bool(0.8);
  const partition::Policy policies[] = {
      partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
      partition::Policy::kCartesianVertexCut, partition::Policy::kGeneralVertexCut,
      partition::Policy::kRandomEdge};
  opts.mrbc.policy = policies[rng.next_bounded(5)];
  stream::IncrementalBc inc(g, opts);

  for (int round = 0; round < 3; ++round) {
    stream::EdgeBatch batch;
    const auto num_ops = 1 + rng.next_bounded(24);
    for (std::uint64_t i = 0; i < num_ops; ++i) {
      if (!reference.empty() && rng.next_bool(0.45)) {
        auto it = reference.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.next_bounded(reference.size())));
        batch.erase(it->src, it->dst);
        reference.erase(it);
      } else {
        const auto u = static_cast<VertexId>(rng.next_bounded(n));
        const auto v = static_cast<VertexId>(rng.next_bounded(n));
        batch.insert(u, v);
        if (u != v) reference.insert({u, v});
      }
    }
    inc.apply(batch);

    const Graph expected_graph =
        graph::build_graph(n, {reference.begin(), reference.end()});
    ASSERT_EQ(inc.graph().out_offsets(), expected_graph.out_offsets())
        << "seed=" << GetParam() << " round=" << round;
    ASSERT_EQ(inc.graph().out_targets(), expected_graph.out_targets())
        << "seed=" << GetParam() << " round=" << round;
    const auto golden = baselines::brandes_bc_sources(expected_graph, inc.sources());
    ASSERT_EQ(golden.bc.size(), inc.scores().size());
    for (std::size_t v = 0; v < golden.bc.size(); ++v) {
      EXPECT_NEAR(golden.bc[v], inc.scores()[v], 1e-9 * std::max(1.0, std::abs(golden.bc[v])))
          << "seed=" << GetParam() << " round=" << round << " vertex=" << v;
    }
  }
}

// ---- Permanent-death differential fuzz --------------------------------------

/// Outcome of one death-schedule case; `failure` empty means it passed.
/// Shared by the TEST_P below and the --replay entry point so a dumped
/// repro file re-runs the exact failing schedule.
struct DeathCase {
  bool ran = false;         ///< false: the seed drew a degenerate graph
  std::string failure;
  sim::FaultPlan plan;
};

/// Random graph x random config x a random schedule of up to hosts-1
/// permanent deaths (plus optional message faults and a crash), checked for
/// bit-identical BC scores and round counts against the fault-free run.
/// The graph, sources, and options derive deterministically from
/// `fuzz_seed`; `replay_plan` (from a repro file) overrides the generated
/// schedule without disturbing those draws.
DeathCase run_death_case(std::uint64_t fuzz_seed, const sim::FaultPlan* replay_plan) {
  DeathCase out;
  util::Xoshiro256 rng(fuzz_seed * 0xDEAD5EED + 19);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return out;
  out.ran = true;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(8));
  const auto sources = graph::sample_sources(g, k, rng.next(), true);

  core::MrbcOptions opts;
  opts.num_hosts = 2 + static_cast<partition::HostId>(rng.next_bounded(7));
  opts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(12));
  opts.delayed_sync = rng.next_bool(0.8);
  opts.cluster.checkpoint_interval = 1 + rng.next_bounded(6);

  sim::FaultPlan plan;
  plan.seed = rng.next();
  if (rng.next_bool(0.4)) {
    plan.drop_rate = 0.3 * rng.next_double();
    plan.duplicate_rate = 0.2 * rng.next_double();
    plan.straggler_rate = 0.3 * rng.next_double();
  }
  const std::uint64_t num_deaths = 1 + rng.next_bounded(opts.num_hosts - 1);
  for (std::uint64_t i = 0; i < num_deaths; ++i) {
    sim::FaultEvent ev;
    ev.kind = sim::FaultKind::kHostDeath;
    ev.round = 1 + static_cast<std::uint32_t>(rng.next_bounded(14));
    ev.host = static_cast<partition::HostId>(rng.next_bounded(opts.num_hosts));
    plan.events.push_back(ev);
  }
  if (rng.next_bool(0.3)) {
    sim::FaultEvent ev;
    ev.kind = sim::FaultKind::kCrash;
    ev.round = 1 + static_cast<std::uint32_t>(rng.next_bounded(10));
    ev.host = static_cast<partition::HostId>(rng.next_bounded(opts.num_hosts));
    plan.events.push_back(ev);
  }
  if (replay_plan != nullptr) plan = *replay_plan;
  out.plan = plan;

  const auto golden = core::mrbc_bc(g, sources, opts);

  sim::FaultInjector injector(plan, opts.num_hosts);
  sim::Membership membership(opts.num_hosts);
  core::MrbcOptions fopts = opts;
  fopts.cluster.fault = &injector;
  fopts.cluster.membership = &membership;
  const auto run = core::mrbc_bc(g, sources, fopts);

  std::string why;
  if (run.anomalies != 0) {
    why += "anomalies=" + std::to_string(run.anomalies) + "; ";
  }
  if (run.forward.rounds != golden.forward.rounds) {
    why += "forward rounds " + std::to_string(run.forward.rounds) + " != " +
           std::to_string(golden.forward.rounds) + "; ";
  }
  if (run.backward.rounds != golden.backward.rounds) {
    why += "backward rounds " + std::to_string(run.backward.rounds) + " != " +
           std::to_string(golden.backward.rounds) + "; ";
  }
  if (run.result.bc.size() != golden.result.bc.size()) {
    why += "score vector size mismatch; ";
  } else {
    for (std::size_t v = 0; v < golden.result.bc.size(); ++v) {
      std::uint64_t gb = 0, rb = 0;
      std::memcpy(&gb, &golden.result.bc[v], sizeof(gb));
      std::memcpy(&rb, &run.result.bc[v], sizeof(rb));
      if (gb != rb) {
        why += "bc[" + std::to_string(v) + "] " + std::to_string(run.result.bc[v]) +
               " != " + std::to_string(golden.result.bc[v]) + " (bitwise); ";
        break;
      }
    }
  }
  if (!why.empty()) {
    out.failure = "death schedule diverged from fault-free (seed=" +
                  std::to_string(fuzz_seed) + " hosts=" + std::to_string(opts.num_hosts) +
                  " deaths=" + std::to_string(num_deaths) + "): " + why;
  }
  return out;
}

TEST_P(DifferentialFuzz, DeathSchedulesMatchFaultFree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const DeathCase result = run_death_case(seed, nullptr);
  if (!result.ran) return;
  if (!result.failure.empty()) {
    // Dump the failing schedule so it can be re-run standalone:
    //   test_fuzz_differential --replay=<file>
    const std::string repro = "mrbc_death_repro_seed" + std::to_string(seed) + ".snap";
    sim::save_fault_plan_file(repro, result.plan, seed);
    FAIL() << result.failure << "\nschedule dumped to " << repro
           << "; re-run with: test_fuzz_differential --replay=" << repro;
  }
}

TEST_P(DifferentialFuzz, DurableResumeMatchesUninterrupted) {
  // SIGKILL-and-resume fuzz: the same faulted execution, once run straight
  // through and once killed right after a durable snapshot write and
  // cold-restarted (fresh injector + membership per restart; all state
  // comes back from the file). Scores must match fault-free Brandes-level
  // exactness and every deterministic counter must match the uninterrupted
  // faulted run.
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 0xC01D + 23);
  Graph g = random_graph(rng);
  if (g.num_vertices() < 2) return;
  const auto k = 1 + static_cast<VertexId>(rng.next_bounded(8));
  const auto sources = graph::sample_sources(g, k, rng.next(), true);

  core::MrbcOptions opts;
  opts.num_hosts = 2 + static_cast<partition::HostId>(rng.next_bounded(6));
  opts.batch_size = 1 + static_cast<std::uint32_t>(rng.next_bounded(10));
  opts.delayed_sync = rng.next_bool(0.8);
  opts.cluster.checkpoint_interval = 2 + rng.next_bounded(5);

  sim::FaultPlan plan;
  plan.seed = rng.next();
  const bool with_deaths = rng.next_bool(0.6);
  if (with_deaths) {
    const std::uint64_t num_deaths = 1 + rng.next_bounded(opts.num_hosts - 1);
    for (std::uint64_t i = 0; i < num_deaths; ++i) {
      plan.events.push_back({sim::FaultKind::kHostDeath,
                             1 + static_cast<std::uint32_t>(rng.next_bounded(12)),
                             static_cast<partition::HostId>(rng.next_bounded(opts.num_hosts))});
    }
  }
  const auto halt_after = 2 + rng.next_bounded(3);

  const auto golden = core::mrbc_bc(g, sources, opts);

  auto faulted = [&](const std::string& dir, bool resume, std::size_t halt) {
    sim::FaultInjector injector(plan, opts.num_hosts);
    sim::Membership membership(opts.num_hosts);
    core::MrbcOptions o = opts;
    o.cluster.fault = &injector;
    o.cluster.membership = &membership;
    o.checkpoint_dir = dir;
    o.resume = resume;
    o.halt_after_checkpoints = halt;
    return core::mrbc_bc(g, sources, o);
  };

  const auto reference = faulted("", false, 0);

  const std::string dir =
      ::testing::TempDir() + "mrbc_fuzz_resume_" + std::to_string(GetParam());
  std::filesystem::create_directories(dir);
  std::remove((dir + "/mrbc.ckpt").c_str());
  core::MrbcRun resumed = faulted(dir, false, halt_after);
  int restarts = 0;
  while (resumed.halted) {
    resumed = faulted(dir, true, halt_after + 1);
    ASSERT_LT(++restarts, 300) << "seed=" << GetParam()
                               << ": resume chain failed to make progress";
  }

  const std::string label = "seed=" + std::to_string(GetParam()) +
                            (with_deaths ? " with deaths" : "") +
                            " restarts=" + std::to_string(restarts);
  ASSERT_EQ(resumed.result.bc.size(), golden.result.bc.size()) << label;
  for (std::size_t v = 0; v < golden.result.bc.size(); ++v) {
    std::uint64_t gb = 0, rb = 0;
    std::memcpy(&gb, &golden.result.bc[v], sizeof(gb));
    std::memcpy(&rb, &resumed.result.bc[v], sizeof(rb));
    ASSERT_EQ(rb, gb) << label << " vertex=" << v;
  }
  EXPECT_EQ(resumed.anomalies, 0u) << label;
  EXPECT_EQ(resumed.forward.rounds, reference.forward.rounds) << label;
  EXPECT_EQ(resumed.backward.rounds, reference.backward.rounds) << label;
  EXPECT_EQ(resumed.num_batches, reference.num_batches) << label;
  const auto a = resumed.total();
  const auto b = reference.total();
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.bytes, b.bytes) << label;
  EXPECT_EQ(a.values, b.values) << label;
  EXPECT_EQ(a.faults.deaths, b.faults.deaths) << label;
  EXPECT_EQ(a.faults.handoffs, b.faults.handoffs) << label;
  EXPECT_EQ(a.faults.detection_rounds, b.faults.detection_rounds) << label;
  EXPECT_EQ(a.faults.recovery_rounds, b.faults.recovery_rounds) << label;
  EXPECT_EQ(a.faults.drops, b.faults.drops) << label;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 40));

}  // namespace

/// Standalone re-run of a schedule dumped by DeathSchedulesMatchFaultFree.
/// Exit 0: the schedule passes; 1: it still fails; 2: unreadable file.
int replay_fault_schedule(const char* path) {
  std::uint64_t fuzz_seed = 0;
  sim::FaultPlan plan;
  try {
    plan = sim::load_fault_plan_file(path, &fuzz_seed);
  } catch (const sim::SnapshotError& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "replaying fuzz seed %llu from %s (%zu scheduled events)\n",
               static_cast<unsigned long long>(fuzz_seed), path, plan.events.size());
  const DeathCase result = run_death_case(fuzz_seed, &plan);
  if (!result.ran) {
    std::fprintf(stderr, "replay: seed draws a degenerate graph; nothing to run\n");
    return 0;
  }
  if (result.failure.empty()) {
    std::fprintf(stderr, "replay PASSED: schedule no longer diverges\n");
    return 0;
  }
  std::fprintf(stderr, "replay FAILED: %s\n", result.failure.c_str());
  return 1;
}

}  // namespace mrbc

/// Overrides gtest_main's entry point so a dumped fault schedule can be
/// re-run directly: test_fuzz_differential --replay=<repro-file>.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--replay=", 9) == 0) {
      return mrbc::replay_fault_schedule(argv[i] + 9);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
