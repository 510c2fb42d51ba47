// Streaming subsystem: in-order batch application (apply_batch), EdgeBatch
// wire format, distributed ingest routing, and IncrementalBc score
// maintenance against from-scratch Brandes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/brandes_seq.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "partition/policies.h"
#include "stream/edge_batch.h"
#include "stream/incremental_bc.h"
#include "stream/ingest.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace mrbc {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;
using stream::EdgeBatch;
using stream::EdgeOp;
using stream::EdgeOpKind;
using stream::IncrementalBc;

EdgeOp ins(VertexId u, VertexId v) { return {{u, v}, EdgeOpKind::kInsert}; }
EdgeOp del(VertexId u, VertexId v) { return {{u, v}, EdgeOpKind::kDelete}; }

struct ApplyCase {
  std::string name;
  Graph base;                   ///< normalized (normalize_rows) before the batch
  std::vector<EdgeOp> ops;      ///< the batch
  std::vector<EdgeOp> applied;  ///< ops reported as changing the graph
  std::vector<Edge> edges;      ///< the graph after the batch
};

TEST(ApplyBatch, InOrderSemantics) {
  const VertexId big = graph::kInvalidVertex;
  // 0 -> {1, 0, 0}: unsorted, a self-loop and a duplicate.
  const Graph raw(std::vector<graph::EdgeId>{0, 3, 3}, std::vector<VertexId>{1, 0, 0});
  const std::vector<ApplyCase> cases = {
      {"in order", graph::path(4),
       {ins(0, 2), ins(3, 0), del(1, 2)},
       {ins(0, 2), ins(3, 0), del(1, 2)},
       {{0, 1}, {0, 2}, {2, 3}, {3, 0}}},
      {"self-loop", graph::path(3), {ins(1, 1), del(2, 2)}, {}, {{0, 1}, {1, 2}}},
      {"duplicate of a base edge and of an inserted edge", graph::path(3),
       {ins(0, 1), ins(0, 2), ins(0, 2)},
       {ins(0, 2)},
       {{0, 1}, {0, 2}, {1, 2}}},
      {"missing", graph::path(3), {del(2, 0), del(1, 0)}, {}, {{0, 1}, {1, 2}}},
      {"out of range", graph::path(3),
       {ins(0, 3), ins(3, 0), del(99, 0), ins(0, big), del(big, big)},
       {},
       {{0, 1}, {1, 2}}},
      {"insert then delete nets out", graph::path(3),
       {ins(2, 0), del(2, 0)},
       {ins(2, 0), del(2, 0)},
       {{0, 1}, {1, 2}}},
      {"delete then re-insert restores a base edge", graph::path(3),
       {del(0, 1), ins(0, 1), ins(0, 1), del(1, 2)},
       {del(0, 1), ins(0, 1), del(1, 2)},
       {{0, 1}}},
      {"merge at row edges", graph::build_graph(5, {{1, 3}, {3, 4}}),
       {ins(1, 4), ins(1, 0), ins(4, 0), ins(0, 4), del(3, 4)},
       {ins(1, 4), ins(1, 0), ins(4, 0), ins(0, 4), del(3, 4)},
       {{0, 4}, {1, 0}, {1, 3}, {1, 4}, {4, 0}}},
      {"empty batch", graph::path(3), {}, {}, {{0, 1}, {1, 2}}},
      {"normalized raw base", raw, {ins(0, 1), ins(1, 0)}, {ins(1, 0)}, {{0, 1}, {1, 0}}},
  };
  for (const ApplyCase& c : cases) {
    EdgeBatch batch;
    batch.ops = c.ops;
    const stream::AppliedBatch out =
        stream::apply_batch(stream::normalize_rows(c.base), batch);
    EXPECT_EQ(out.applied, c.applied) << c.name;
    const Graph expected = graph::build_graph(c.base.num_vertices(), c.edges);
    EXPECT_EQ(out.graph.out_offsets(), expected.out_offsets()) << c.name;
    EXPECT_EQ(out.graph.out_targets(), expected.out_targets()) << c.name;
    for (VertexId v = 0; v < expected.num_vertices(); ++v) {
      EXPECT_TRUE(std::ranges::equal(out.graph.in_neighbors(v), expected.in_neighbors(v)))
          << c.name << " in-neighbors of " << v;
    }
  }
}

TEST(EdgeBatch, SerializeRoundTrip) {
  EdgeBatch batch;
  batch.insert(3, 7);
  batch.erase(1, 2);
  batch.insert(0, 5);
  util::SendBuffer buf;
  batch.serialize(buf);
  EXPECT_EQ(buf.size(), batch.wire_bytes());
  util::RecvBuffer rbuf(buf.take());
  const EdgeBatch restored = EdgeBatch::deserialize(rbuf);
  EXPECT_EQ(restored.ops, batch.ops);
}

TEST(Ingest, RoutesEveryOpExactlyOnceInOrder) {
  const Graph g = graph::erdos_renyi(60, 0.08, 3);
  for (const auto policy :
       {partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
        partition::Policy::kCartesianVertexCut, partition::Policy::kRandomEdge}) {
    const partition::Partition part(g, 6, policy);
    comm::Substrate substrate(part);
    util::Xoshiro256 rng(17);
    EdgeBatch batch;
    for (int i = 0; i < 64; ++i) {
      const auto u = static_cast<VertexId>(rng.next_bounded(60));
      const auto v = static_cast<VertexId>(rng.next_bounded(60));
      if (rng.next_bool(0.7)) {
        batch.insert(u, v);
      } else {
        batch.erase(u, v);
      }
    }
    util::StatsRegistry registry;
    const auto routed = stream::route_batch(batch, substrate, policy, {}, &registry);

    // Every op lands on exactly one host, at the policy's owner.
    std::size_t total = 0;
    for (partition::HostId h = 0; h < 6; ++h) {
      for (const auto& op : routed.per_host[h].ops) {
        EXPECT_EQ(partition::edge_owner(op.edge, 60, 6, policy), h);
      }
      total += routed.per_host[h].size();
    }
    EXPECT_EQ(total, batch.size());
    EXPECT_EQ(routed.local_ops + routed.remote_ops, batch.size());
    // Per-edge op order is preserved within each host's sub-batch.
    for (partition::HostId h = 0; h < 6; ++h) {
      for (std::size_t i = 0; i < routed.per_host[h].ops.size(); ++i) {
        for (std::size_t j = i + 1; j < routed.per_host[h].ops.size(); ++j) {
          const auto& a = routed.per_host[h].ops[i];
          const auto& b = routed.per_host[h].ops[j];
          if (a.edge != b.edge) continue;
          // Find positions in the original batch: order must match.
          const auto pos = [&](const stream::EdgeOp& op, std::size_t from) {
            for (std::size_t p = from; p < batch.ops.size(); ++p) {
              if (batch.ops[p] == op) return p;
            }
            return batch.ops.size();
          };
          EXPECT_LT(pos(a, 0), pos(b, pos(a, 0) + 1));
        }
      }
    }
    EXPECT_EQ(registry.counter("stream/ingest_ops"), batch.size());
    EXPECT_GT(routed.wire.bytes, 0u);
    EXPECT_GE(routed.modeled_seconds, 0.0);
  }
}

TEST(Ingest, OutOfRangeEndpointsRouteToARealHost) {
  // Ids come from POST /ingest: an endpoint >= n must route in range (the
  // apply then rejects the op), under every policy.
  const Graph g = graph::erdos_renyi(60, 0.08, 3);
  const VertexId huge = graph::kInvalidVertex - 1;
  EdgeBatch batch;
  batch.erase(huge, 1);
  batch.insert(3, huge);
  batch.insert(60, 60);
  batch.insert(huge, huge);
  for (const auto policy :
       {partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
        partition::Policy::kCartesianVertexCut, partition::Policy::kGeneralVertexCut,
        partition::Policy::kRandomEdge}) {
    for (const partition::HostId hosts : {1u, 4u, 6u}) {
      for (const EdgeOp& op : batch.ops) {
        EXPECT_LT(partition::edge_owner(op.edge, 60, hosts, policy), hosts)
            << partition::to_string(policy) << " " << op.edge.src << "->" << op.edge.dst;
      }
    }
    stream::IncrementalBcOptions opts;
    opts.num_samples = 4;
    opts.mrbc.num_hosts = 4;
    opts.mrbc.policy = policy;
    IncrementalBc inc(g, opts);
    const auto report = inc.apply(batch);
    EXPECT_EQ(report.applied_ops, 0u);
    EXPECT_EQ(inc.stats().counter("stream/ingest_ops"), batch.size());
    EXPECT_EQ(inc.graph().out_targets(), g.out_targets());
  }
}

TEST(Ingest, EdgeOwnerMatchesAssignEdges) {
  const Graph g = graph::rmat({.scale = 6, .edge_factor = 4.0, .seed = 11});
  for (const auto policy : {partition::Policy::kEdgeCutSrc, partition::Policy::kEdgeCutDst,
                            partition::Policy::kCartesianVertexCut}) {
    const auto assignment = partition::assign_edges(g, 6, policy);
    graph::EdgeId e = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v : g.out_neighbors(u)) {
        EXPECT_EQ(partition::edge_owner({u, v}, g.num_vertices(), 6, policy), assignment[e])
            << partition::to_string(policy) << " edge " << u << "->" << v;
        ++e;
      }
    }
  }
}

TEST(IncrementalBc, ExactMaintenanceOnStructuredGraph) {
  // All-sources (exact) maintenance on the diamond graph across inserts
  // and a disconnecting delete.
  const Graph base = graph::build_graph(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  stream::IncrementalBcOptions opts;
  opts.num_samples = 5;  // >= n: exact
  opts.mrbc.num_hosts = 3;
  IncrementalBc inc(base, opts);
  testing::expect_bc_equal(baselines::brandes_bc(base), inc.scores(), "initial");

  EdgeBatch b1;
  b1.insert(3, 4);
  const auto r1 = inc.apply(b1);
  EXPECT_GT(r1.affected_sources, 0u);
  {
    const Graph now = graph::build_graph(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
    testing::expect_bc_equal(baselines::brandes_bc(now), inc.scores(), "after insert");
  }

  // A batch that changes nothing still advances the epoch.
  EdgeBatch noop;
  noop.insert(3, 4);
  noop.erase(4, 3);
  const auto r0 = inc.apply(noop);
  EXPECT_EQ(r0.epoch, 2u);
  EXPECT_EQ(inc.epoch(), 2u);
  EXPECT_EQ(r0.applied_ops, 0u);
  EXPECT_EQ(r0.affected_sources, 0u);
  EXPECT_EQ(inc.graph().num_edges(), 5u);

  EdgeBatch b2;  // disconnect 3 (and 4) from the sources' reach
  b2.erase(1, 3);
  b2.erase(2, 3);
  inc.apply(b2);
  {
    const Graph now = graph::build_graph(5, {{0, 1}, {0, 2}, {3, 4}});
    testing::expect_bc_equal(baselines::brandes_bc(now), inc.scores(), "after disconnect");
  }
}

TEST(IncrementalBc, UnaffectedSourcesAreNotReexecuted) {
  // Two disjoint bidirectional paths; churn confined to the second
  // component must never re-execute sources sampled in the first.
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 12; ++v) {
    if (v == 5) continue;
    edges.push_back({v, v + 1});
    edges.push_back({v + 1, v});
  }
  const Graph base = graph::build_graph(12, std::move(edges));
  stream::IncrementalBcOptions opts;
  opts.num_samples = 12;
  opts.recompute_threshold = 1.0;  // never fall back, count true affected
  IncrementalBc inc(base, opts);

  EdgeBatch batch;
  batch.insert(6, 8);
  const auto report = inc.apply(batch);
  // Only source 6's DAG changes: for s=7 the new edge offers d(6)+1 = 2 > 1
  // = d(8), and no source in the first component can even reach vertex 6.
  EXPECT_EQ(report.affected_sources, 1u);
  EXPECT_FALSE(report.full_recompute);
  const Graph& now = inc.graph();
  testing::expect_bc_equal(baselines::brandes_bc(now), inc.scores(), "component-local churn");
}

TEST(IncrementalBc, FullRecomputeFallback) {
  const Graph base = graph::bidirectional_path(8);
  stream::IncrementalBcOptions opts;
  opts.num_samples = 8;
  opts.recompute_threshold = 0.0;  // any affected source trips the fallback
  IncrementalBc inc(base, opts);
  EdgeBatch batch;
  batch.insert(0, 4);
  const auto report = inc.apply(batch);
  EXPECT_TRUE(report.full_recompute);
  EXPECT_EQ(report.affected_sources, 8u);
  EXPECT_EQ(inc.stats().counter("stream/full_recomputes"), 1u);
  testing::expect_bc_equal(baselines::brandes_bc(inc.graph()), inc.scores(), "fallback");
}

TEST(IncrementalBc, SampledSubsetMatchesBrandesOnSameSources) {
  const Graph base = graph::erdos_renyi(50, 0.08, 21);
  stream::IncrementalBcOptions opts;
  opts.num_samples = 12;
  opts.seed = 5;
  opts.mrbc.num_hosts = 4;
  IncrementalBc inc(base, opts);
  util::Xoshiro256 rng(77);
  for (int round = 0; round < 4; ++round) {
    EdgeBatch batch;
    for (int i = 0; i < 10; ++i) {
      const auto u = static_cast<VertexId>(rng.next_bounded(50));
      const auto v = static_cast<VertexId>(rng.next_bounded(50));
      if (rng.next_bool(0.5) && inc.graph().has_edge(u, v)) {
        batch.erase(u, v);
      } else {
        batch.insert(u, v);
      }
    }
    inc.apply(batch);
    const auto golden = baselines::brandes_bc_sources(inc.graph(), inc.sources());
    testing::expect_bc_equal(golden.bc, inc.scores(),
                             "sampled churn round " + std::to_string(round));
  }
  // Scaled estimator applies n/k.
  const auto scaled = inc.scaled_scores();
  for (std::size_t v = 0; v < scaled.size(); ++v) {
    EXPECT_NEAR(scaled[v], inc.scores()[v] * 50.0 / 12.0, 1e-9);
  }
}

TEST(IncrementalBc, PartitionFollowsTheGraphWithoutAReexecution) {
  // Deleting (a, b) from a complete graph, with a not a source, leaves
  // every sampled DAG intact: d_s(b) != d_s(a) + 1 for every source s.
  stream::IncrementalBcOptions opts;
  opts.num_samples = 4;
  opts.mrbc.num_hosts = 4;
  IncrementalBc inc(graph::complete(8), opts);
  EXPECT_EQ(inc.partition().num_global_edges(), inc.graph().num_edges());
  VertexId a = 0;
  while (std::count(inc.sources().begin(), inc.sources().end(), a) != 0) ++a;
  const VertexId b = a == 0 ? 1 : 0;

  EdgeBatch batch;
  batch.erase(a, b);
  const auto report = inc.apply(batch);
  ASSERT_EQ(report.applied_ops, 1u);
  EXPECT_EQ(report.affected_sources, 0u);
  EXPECT_EQ(inc.stats().counter("stream/sources_reexecuted"), opts.num_samples);
  EXPECT_EQ(inc.graph().num_edges(), 8u * 7u - 1u);
  EXPECT_EQ(inc.partition().num_global_edges(), inc.graph().num_edges());
}

TEST(IncrementalBc, IngestCountersAccumulate) {
  const Graph base = graph::erdos_renyi(40, 0.1, 9);
  stream::IncrementalBcOptions opts;
  opts.num_samples = 8;
  opts.mrbc.num_hosts = 4;
  IncrementalBc inc(base, opts);
  EdgeBatch batch;
  for (VertexId v = 10; v < 26; ++v) batch.insert(1, v);
  inc.apply(batch);
  EXPECT_EQ(inc.stats().counter("stream/batches"), 1u);
  EXPECT_EQ(inc.stats().counter("stream/ingest_ops"), 16u);
  EXPECT_EQ(inc.stats().counter("stream/ingest_local_ops") +
                inc.stats().counter("stream/ingest_remote_ops"),
            16u);
  // 16 distinct edges hashed over 4 origin hosts: some must cross the wire.
  EXPECT_GT(inc.stats().counter("stream/ingest_remote_ops"), 0u);
  EXPECT_GT(inc.stats().counter("stream/ingest_bytes"), 0u);
  EXPECT_GT(inc.stats().counter("stream/sources_reexecuted"), 0u);
}

}  // namespace
}  // namespace mrbc
