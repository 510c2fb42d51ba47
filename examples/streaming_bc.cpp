// Streaming BC: keep betweenness centrality fresh while the graph churns.
//
//   $ ./streaming_bc
//
// A synthetic social network absorbs batches of edge insertions and
// deletions; after each batch the incremental engine re-executes exactly
// the sampled sources whose shortest-path DAGs the batch touched, and the
// top-5 central vertices are reported per epoch.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "stream/incremental_bc.h"
#include "util/rng.h"

int main() {
  using namespace mrbc;

  // 1. Start from a base snapshot and stand up the incremental engine:
  //    64 sampled sources maintained on a simulated 4-host cluster.
  graph::Graph base = graph::rmat({.scale = 9, .edge_factor = 6.0, .seed = 13});
  std::printf("base graph: %u vertices, %llu edges\n", base.num_vertices(),
              static_cast<unsigned long long>(base.num_edges()));

  stream::IncrementalBcOptions options;
  options.num_samples = 64;
  options.seed = 1;
  options.mrbc.num_hosts = 4;
  options.mrbc.policy = partition::Policy::kCartesianVertexCut;
  const graph::VertexId n = base.num_vertices();
  stream::IncrementalBc bc(std::move(base), options);

  const auto print_top5 = [&bc]() {
    std::vector<graph::VertexId> order(bc.scores().size());
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&bc](graph::VertexId a, graph::VertexId b) {
                        return bc.scores()[a] > bc.scores()[b];
                      });
    std::printf("  top-5:");
    for (int i = 0; i < 5; ++i) {
      std::printf("  v%u (%.1f)", order[i], bc.scores()[order[i]]);
    }
    std::printf("\n");
  };
  std::printf("epoch %llu (initial run over %zu sampled sources)\n",
              static_cast<unsigned long long>(bc.epoch()), bc.sources().size());
  print_top5();

  // 2. Stream edge-update batches. Each apply() applies the batch to the
  //    CSR as one epoch and restores exactness by re-running only the
  //    affected sources.
  util::Xoshiro256 rng(99);
  std::size_t total_ops = 0, total_reexecuted = 0;
  sim::RunStats total_cost;
  for (int round = 0; round < 5; ++round) {
    stream::EdgeBatch batch;
    for (int i = 0; i < 20; ++i) {
      const auto u = static_cast<graph::VertexId>(rng.next_bounded(n));
      const auto v = static_cast<graph::VertexId>(rng.next_bounded(n));
      if (rng.next_bool(0.3) && bc.graph().has_edge(u, v)) {
        batch.erase(u, v);
      } else {
        batch.insert(u, v);
      }
    }
    const stream::BatchReport report = bc.apply(batch);
    std::printf("epoch %llu: %zu/%zu ops applied, %zu/%zu sources re-executed, "
                "%zu rounds, %zu bytes, %.4f model-s\n",
                static_cast<unsigned long long>(report.epoch), report.applied_ops, batch.size(),
                report.affected_sources, bc.sources().size(), report.reexec.rounds,
                report.reexec.bytes, report.reexec.total_seconds());
    print_top5();
    total_ops += report.applied_ops;
    total_reexecuted += report.affected_sources;
    total_cost += report.reexec;
  }

  // 3. Cumulative accounting for the whole stream.
  std::printf("\nstream totals: %zu ops applied, %zu sources re-executed, %zu rounds, "
              "%zu bytes, %.4f model-s\n",
              total_ops, total_reexecuted, total_cost.rounds, total_cost.bytes,
              total_cost.total_seconds());
  return 0;
}
