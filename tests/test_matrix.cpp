// Tests for MFBC's matrix layer: the 2.5D process grid, the per-host
// tiles of the distributed adjacency matrix, and the replicated backend
// (bit-identity of BC scores across replication factors, thread counts,
// fault injection, and crash/rollback).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "baselines/brandes_seq.h"
#include "baselines/mfbc.h"
#include "engine/fault.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "matrix/dist_engine.h"
#include "matrix/dist_matrix.h"
#include "matrix/grid.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace mrbc::matrix {
namespace {

using graph::Graph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// ProcessGrid layout and legality.

TEST(ProcessGrid, ShapesCoverReplicationRange) {
  const ProcessGrid g1 = ProcessGrid::make(8, 1);
  EXPECT_EQ(g1.rows, 8u);
  EXPECT_EQ(g1.layers, 1u);

  const ProcessGrid g2 = ProcessGrid::make(8, 2);
  EXPECT_EQ(g2.rows, 4u);
  EXPECT_EQ(g2.layers, 2u);
  EXPECT_EQ(g2.panels_per_layer(), ProcessGrid::kColumnPanels / 2);

  // Host counts need not be perfect squares: 6 hosts at c = 2 is a 3 x 2 grid.
  const ProcessGrid g3 = ProcessGrid::make(6, 2);
  EXPECT_EQ(g3.rows, 3u);
  EXPECT_EQ(g3.layers, 2u);

  const ProcessGrid g4 = ProcessGrid::make(8, 8);
  EXPECT_EQ(g4.rows, 1u);
  EXPECT_EQ(g4.layers, 8u);
  EXPECT_EQ(g4.panels_per_layer(), 1u);
}

TEST(ProcessGrid, HostIndexingRoundTrips) {
  const ProcessGrid grid = ProcessGrid::make(12, 4);
  ASSERT_EQ(grid.rows, 3u);
  for (HostId h = 0; h < grid.hosts; ++h) {
    EXPECT_EQ(grid.host_at(grid.row_of(h), grid.layer_of(h)), h);
  }
  for (HostId r = 0; r < grid.rows; ++r) {
    EXPECT_EQ(grid.row_of(grid.group_leader(r)), r);
    EXPECT_EQ(grid.layer_of(grid.group_leader(r)), 0u);
  }
}

TEST(ProcessGrid, VertexBlocksAreContiguousAndPanelAligned) {
  const ProcessGrid grid = ProcessGrid::make(6, 2);
  const VertexId n = 103;  // deliberately not divisible by rows or panels
  VertexId covered = 0;
  for (HostId r = 0; r < grid.rows; ++r) {
    const VertexId start = grid.row_start(r, n);
    const VertexId size = grid.row_size(r, n);
    EXPECT_EQ(start, covered);
    for (VertexId v = start; v < start + size; ++v) {
      EXPECT_EQ(grid.vertex_row(v, n), r);
    }
    covered += size;
  }
  EXPECT_EQ(covered, n);
  for (VertexId v = 0; v < n; ++v) {
    // Every layer owns a contiguous aligned run of column panels.
    EXPECT_EQ(grid.panel_layer(ProcessGrid::panel_of(v, n)), grid.vertex_layer(v, n));
  }
}

void expect_make_throws(HostId hosts, HostId c, const std::string& needle) {
  try {
    ProcessGrid::make(hosts, c);
    FAIL() << "make(" << hosts << ", " << c << ") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
}

TEST(ProcessGrid, RejectsIllegalReplicationWithClearErrors) {
  expect_make_throws(8, 3, "divide");       // 3 does not divide 8
  expect_make_throws(6, 3, "power of two");  // divides, but panels cannot split
  expect_make_throws(16, 16, "panel");       // exceeds the 8 column panels
  expect_make_throws(0, 1, "host");
  expect_make_throws(8, 0, "replication");
}

// ---------------------------------------------------------------------------
// Tile layout of the distributed adjacency matrix.

TEST(DistMatrix, TilesPartitionEdgesAcrossGrids) {
  const Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 17});
  const VertexId n = g.num_vertices();
  const auto count = [](const Graph& tile, VertexId from, VertexId to) {
    const auto nbrs = tile.out_neighbors(from);
    return std::count(nbrs.begin(), nbrs.end(), to);
  };
  for (HostId c : {1u, 2u, 4u}) {
    const ProcessGrid grid = ProcessGrid::make(8, c);
    const DistMatrix A(g, grid);
    // Tiles hold unique edges, so with the per-edge checks below these
    // totals leave no room for an edge outside its designated tile.
    std::size_t forward_edges = 0;
    std::size_t backward_edges = 0;
    for (HostId h = 0; h < grid.hosts; ++h) {
      forward_edges += A.forward_tile(h).num_edges();
      backward_edges += A.backward_tile(h).num_edges();
    }
    EXPECT_EQ(forward_edges, g.num_edges()) << "c=" << c;
    EXPECT_EQ(backward_edges, g.num_edges()) << "c=" << c;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId w : g.out_neighbors(u)) {
        const HostId fh = grid.host_at(grid.vertex_row(w, n), grid.vertex_layer(u, n));
        const HostId bh = grid.host_at(grid.vertex_row(u, n), grid.vertex_layer(w, n));
        EXPECT_EQ(count(A.forward_tile(fh), u, w), 1) << "c=" << c << " edge " << u << "->" << w;
        EXPECT_EQ(count(A.backward_tile(bh), w, u), 1) << "c=" << c << " edge " << u << "->" << w;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replicated backend: bit-identity of MFBC output across replication,
// thread counts, fault injection, and crash/rollback.

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

baselines::MfbcRun run_replicated(const Graph& g, const std::vector<VertexId>& sources,
                                  std::uint32_t c, bool parallel_hosts,
                                  sim::FaultInjector* fault = nullptr) {
  baselines::MfbcOptions opts;
  opts.num_hosts = 8;
  opts.batch_size = 4;
  opts.replication = c;
  opts.parallel_hosts = parallel_hosts;
  opts.fault = fault;
  return baselines::mfbc_bc(g, sources, opts);
}

TEST(DistEngine, ScoresBitIdenticalAcrossReplicationAndThreads) {
  const Graph g = graph::rmat({.scale = 8, .edge_factor = 6.0, .seed = 31});
  const auto sources = graph::sample_sources(g, 8, 13);
  const baselines::MfbcRun base = run_replicated(g, sources, 1, false);
  mrbc::testing::expect_bc_equal(baselines::brandes_bc_sources(g, sources).bc,
                                 base.result.bc, "mfbc c=1 vs brandes");
  for (std::uint32_t c : {1u, 2u, 4u}) {
    for (bool parallel : {false, true}) {
      if (c == 1 && !parallel) continue;
      const baselines::MfbcRun run = run_replicated(g, sources, c, parallel);
      EXPECT_TRUE(bits_equal(base.result.bc, run.result.bc))
          << "c=" << c << " parallel=" << parallel;
      EXPECT_EQ(base.forward.rounds, run.forward.rounds) << "c=" << c;
      EXPECT_EQ(base.backward.rounds, run.backward.rounds) << "c=" << c;
    }
  }
}

TEST(DistEngine, ReplicatedScoresSurviveFaultInjection) {
  const Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 9});
  const auto sources = graph::sample_sources(g, 6, 21);
  const baselines::MfbcRun clean = run_replicated(g, sources, 2, false);

  sim::FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.03;
  plan.corrupt_rate = 0.02;
  sim::FaultInjector injector(plan, 8);
  const baselines::MfbcRun faulty = run_replicated(g, sources, 2, false, &injector);

  EXPECT_TRUE(bits_equal(clean.result.bc, faulty.result.bc));
  const sim::RunStats total = faulty.total();
  EXPECT_GT(total.faults.drops + total.faults.duplicates + total.faults.corruptions_detected,
            0u)
      << "fault schedule never fired; the test is vacuous";
  EXPECT_GT(total.faults.retransmits, 0u);
}

/// One BSP round the way sim::BspLoop drives it: the exchange, then every
/// host's sweep. Returns whether any host stays active.
bool forward_round(DistBcEngine& e) {
  e.forward_exchange();
  bool active = false;
  for (HostId h = 0; h < e.grid().hosts; ++h) active = e.forward_sweep(h).active || active;
  return active;
}

bool backward_round(DistBcEngine& e) {
  e.backward_exchange();
  bool active = false;
  for (HostId h = 0; h < e.grid().hosts; ++h) active = e.backward_sweep(h).active || active;
  return active;
}

TEST(DistEngine, CrashRollbackRestoresMidBatchBitExactly) {
  const Graph g = graph::rmat({.scale = 7, .edge_factor = 5.0, .seed = 3});
  const auto batch = graph::sample_sources(g, 4, 27);
  const VertexId n = g.num_vertices();
  DistBcOptions opts;
  opts.num_hosts = 8;
  opts.replication = 2;

  const auto all_delta_zero = [&](const DistBcEngine& e) {
    for (VertexId v = 0; v < n; ++v) {
      for (std::size_t sidx = 0; sidx < batch.size(); ++sidx) {
        if (e.delta_at(v, sidx) != 0.0) return false;
      }
    }
    return true;
  };

  // Reference run: a round-end checkpoint after two forward rounds and
  // another after the top backward level, each with partials in flight
  // that the next round's exchange has yet to merge.
  DistBcEngine ref(g, opts);
  ref.begin_batch(batch);
  ASSERT_TRUE(forward_round(ref));
  ASSERT_TRUE(forward_round(ref));
  EXPECT_EQ(ref.max_level(), 1u) << "the second sweep's partials are unmerged";
  util::SendBuffer forward_checkpoint;
  ref.save_checkpoint(forward_checkpoint);
  std::size_t forward_rounds = 2;
  while (forward_round(ref)) ++forward_rounds;
  ++forward_rounds;
  const std::uint32_t top = ref.max_level();
  ASSERT_GE(top, 2u);
  ref.begin_backward();
  ASSERT_TRUE(backward_round(ref));
  EXPECT_TRUE(all_delta_zero(ref)) << "the top level's delta partials are unmerged";
  util::SendBuffer backward_checkpoint;
  ref.save_checkpoint(backward_checkpoint);
  std::size_t backward_rounds = 1;
  while (backward_round(ref)) ++backward_rounds;
  ++backward_rounds;
  EXPECT_EQ(backward_rounds, top) << "one round per level";
  ref.reduce_delta_partials();
  ASSERT_FALSE(all_delta_zero(ref));

  const auto expect_bit_equal = [&](const DistBcEngine& replay, const char* what) {
    for (VertexId v = 0; v < n; ++v) {
      for (std::size_t sidx = 0; sidx < batch.size(); ++sidx) {
        EXPECT_EQ(ref.table_at(v, sidx), replay.table_at(v, sidx)) << what << " v=" << v;
        const double a = ref.delta_at(v, sidx);
        const double b = replay.delta_at(v, sidx);
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
            << what << " v=" << v << " sidx=" << sidx;
      }
    }
  };

  // Crashed replica: fresh engine, roll back to the forward checkpoint,
  // replay the remaining rounds.
  DistBcEngine replay(g, opts);
  util::RecvBuffer rollback(forward_checkpoint);
  replay.restore_checkpoint(rollback);
  std::size_t replayed = 2;
  while (forward_round(replay)) ++replayed;
  EXPECT_EQ(replayed + 1, forward_rounds);
  EXPECT_EQ(replay.max_level(), top);
  replay.begin_backward();
  while (backward_round(replay)) {
  }
  replay.reduce_delta_partials();
  expect_bit_equal(replay, "forward checkpoint");

  // Crash mid-backward: the snapshot carries the level cursor and the top
  // level's delta partials; the restored engine rebuilds its level index
  // from the restored tables and fires the remaining levels with the same
  // bits.
  DistBcEngine bwd_replay(g, opts);
  util::RecvBuffer bwd_rollback(backward_checkpoint);
  bwd_replay.restore_checkpoint(bwd_rollback);
  EXPECT_EQ(bwd_replay.max_level(), top);
  std::size_t bwd_replayed = 1;
  while (backward_round(bwd_replay)) ++bwd_replayed;
  EXPECT_EQ(bwd_replayed + 1, backward_rounds);
  bwd_replay.reduce_delta_partials();
  expect_bit_equal(bwd_replay, "backward checkpoint");
}

TEST(DistEngine, MfbcRejectsIllegalReplication) {
  const Graph g = graph::path(10);
  baselines::MfbcOptions opts;
  opts.num_hosts = 8;
  opts.replication = 3;
  EXPECT_THROW(baselines::mfbc_bc(g, {0}, opts), std::invalid_argument);
  opts.num_hosts = 6;
  opts.replication = 6;  // divides, but not a power of two
  EXPECT_THROW(baselines::mfbc_bc(g, {0}, opts), std::invalid_argument);
}

}  // namespace
}  // namespace mrbc::matrix
