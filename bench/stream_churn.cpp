// Streaming churn benchmark: incremental BC maintenance vs from-scratch
// recomputation across a sweep of batch sizes. For each (input, batch_ops)
// cell a stream of random insert/delete batches is applied; after every
// batch the incremental engine's actual cost (affected-source re-execution
// + distributed ingest) is compared against what recomputing all sampled
// sources through MRBC on the post-batch snapshot would have cost.
//
// Expected shape: small batches touch few SSSP DAGs, so the incremental
// path re-executes a small fraction of the sources and wins on rounds,
// bytes, and modeled seconds; as batches grow the affected fraction
// approaches 1 and the engine's full-recompute fallback closes the gap.

#include <algorithm>
#include <cstdio>

#include "core/mrbc.h"
#include "graph/generators.h"
#include "report.h"
#include "stream/edge_batch.h"
#include "stream/incremental_bc.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads.h"

namespace mrbc::bench {
namespace {

using graph::Graph;
using graph::VertexId;

/// Picks a uniformly random live edge of `g` (by edge id, src recovered
/// from the CSR offsets).
graph::Edge random_edge(const Graph& g, util::Xoshiro256& rng) {
  const auto e = rng.next_bounded(g.num_edges());
  const auto& offsets = g.out_offsets();
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), e);
  const auto src = static_cast<VertexId>(it - offsets.begin() - 1);
  return {src, g.out_targets()[e]};
}

struct ChurnInput {
  std::string name;
  Graph graph;
};

void run() {
  Report report("Streaming churn: incremental vs from-scratch BC maintenance "
                "(32 sampled sources, 4 sim hosts, 8 batches per cell)",
                "stream_churn.csv",
                {"input", "batch_ops", "affected_frac", "inc_src", "full_src", "inc_rounds",
                 "full_rounds", "inc_mbytes", "full_mbytes", "inc_s", "full_s", "speedup"},
                12);

  std::vector<ChurnInput> inputs;
  inputs.push_back({"rmat-s", graph::rmat({.scale = 9, .edge_factor = 4.0, .seed = 7})});
  inputs.push_back({"road-s", graph::road_grid(20, 20, 0.05, 7)});
  inputs.push_back({"web-s", graph::web_crawl_like(8, 3.0, 6, 24, 7)});

  for (const ChurnInput& input : inputs) {
    for (const std::size_t batch_ops : {4u, 16u, 64u, 256u}) {
      stream::IncrementalBcOptions opts;
      opts.num_samples = 32;
      opts.seed = 11;
      opts.mrbc.num_hosts = 4;
      stream::IncrementalBc inc(input.graph, opts);

      util::Xoshiro256 rng(batch_ops * 0x9e37 + 5);
      const VertexId n = inc.graph().num_vertices();
      constexpr int kBatches = 8;
      std::size_t inc_sources = 0, full_sources = 0;
      std::size_t inc_rounds = 0, full_rounds = 0;
      std::size_t inc_bytes = 0, full_bytes = 0;
      double inc_seconds = 0, full_seconds = 0, affected_frac = 0;
      for (int b = 0; b < kBatches; ++b) {
        stream::EdgeBatch batch;
        for (std::size_t i = 0; i < batch_ops; ++i) {
          const Graph& cur = inc.graph();
          if (cur.num_edges() > 0 && rng.next_bool(0.4)) {
            const auto [u, v] = random_edge(cur, rng);
            batch.erase(u, v);
          } else {
            batch.insert(static_cast<VertexId>(rng.next_bounded(n)),
                         static_cast<VertexId>(rng.next_bounded(n)));
          }
        }
        const auto rep = inc.apply(batch);
        inc_sources += rep.affected_sources;
        inc_rounds += rep.reexec.rounds;
        inc_bytes += rep.reexec.bytes + rep.ingest_bytes;
        inc_seconds += rep.model_seconds();
        affected_frac += static_cast<double>(rep.affected_sources) /
                         static_cast<double>(inc.sources().size());

        // What recomputing every sampled source on the new snapshot costs.
        const auto scratch = core::mrbc_bc(inc.graph(), inc.sources(), opts.mrbc);
        full_sources += inc.sources().size();
        full_rounds += scratch.total().rounds;
        full_bytes += scratch.total().bytes;
        full_seconds += scratch.total().total_seconds();
      }

      report.add({input.name, std::to_string(batch_ops),
                  util::fmt(affected_frac / kBatches, 3), std::to_string(inc_sources),
                  std::to_string(full_sources), std::to_string(inc_rounds),
                  std::to_string(full_rounds),
                  util::fmt(static_cast<double>(inc_bytes) / 1e6, 2),
                  util::fmt(static_cast<double>(full_bytes) / 1e6, 2),
                  util::fmt(inc_seconds, 4), util::fmt(full_seconds, 4),
                  util::fmt(full_seconds / std::max(inc_seconds, 1e-12), 2)});
    }
  }
  report.finish();
}

}  // namespace
}  // namespace mrbc::bench

int main() {
  mrbc::bench::run();
  return 0;
}
