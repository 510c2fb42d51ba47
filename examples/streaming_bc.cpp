// Streaming BC: keep betweenness centrality fresh while the graph churns.
//
//   $ ./streaming_bc
//
// A synthetic social network absorbs batches of edge insertions and
// deletions; after each batch the incremental engine re-executes only the
// sampled sources whose shortest-path DAGs the batch touched (plus the
// modeled cost of routing the updates to their owning hosts), and the
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

  // 2. Stream edge-update batches. Each apply() routes the batch to owning
  //    hosts, applies it to the CSR as one epoch, and restores exactness by
  //    re-running only the affected sources.
  util::Xoshiro256 rng(99);
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
    std::printf("epoch %llu: %zu/%zu ops applied, %zu/%zu sources re-executed%s, "
                "%zu ingest bytes, %.4f model-s\n",
                static_cast<unsigned long long>(report.epoch), report.applied_ops, batch.size(),
                report.affected_sources, bc.sources().size(),
                report.full_recompute ? " (full recompute)" : "", report.ingest_bytes,
                report.model_seconds());
    print_top5();
  }

  // 3. Cumulative accounting for the whole stream.
  std::printf("\nstream counters:\n%s", bc.stats().serialize().c_str());
  return 0;
}
