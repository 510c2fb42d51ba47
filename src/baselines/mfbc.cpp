#include "baselines/mfbc.h"

#include <algorithm>

#include "matrix/dist_engine.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace mrbc::baselines {

using graph::kInfDist;

namespace {

/// Folds one engine step into the phase RunStats: measured sweep/merge
/// seconds, measured wire traffic, and one modeled BSP round. The
/// message-count floor — (c-1) replica-group peers plus (pr-1) layer
/// peers — models the control-plane ping every member exchanges even in a
/// round that moved no payload; at c = 1 it reproduces the historical
/// (H-1)-message allgather charge exactly, so replication = 1 is
/// byte-for-byte and second-for-second the old analytic model.
void account_step(sim::RunStats& stats, const sim::NetworkModel& net,
                  const matrix::DistBcStep& step, const matrix::ProcessGrid& grid) {
  const std::uint32_t H = grid.hosts;
  double max_seconds = 0.0;
  stats.per_host_compute_seconds.resize(H, 0.0);
  for (std::uint32_t h = 0; h < H; ++h) {
    max_seconds = std::max(max_seconds, step.host_seconds[h]);
    stats.per_host_compute_seconds[h] += step.host_seconds[h];
  }
  stats.compute_seconds += max_seconds;
  stats.imbalance_sum += util::imbalance(step.host_work);
  stats.messages += step.comm.messages;
  stats.bytes += step.comm.bytes;
  stats.raw_bytes += step.comm.raw_bytes;
  std::size_t max_msgs = static_cast<std::size_t>(grid.layers - 1) + (grid.rows - 1);
  std::size_t max_bytes = 0;
  for (std::uint32_t h = 0; h < H; ++h) {
    max_msgs = std::max(max_msgs, step.comm.msgs_per_host[h]);
    max_bytes = std::max(max_bytes, step.comm.bytes_per_host[h]);
  }
  stats.network_seconds += net.round_seconds(H > 1 ? max_msgs : 0, max_bytes);
  // Fault-injection counters and modeled recovery time (zero on a clean
  // wire, so the historical accounting is unchanged without faults).
  stats.faults.drops += step.comm.drops;
  stats.faults.duplicates += step.comm.duplicates;
  stats.faults.duplicates_suppressed += step.comm.duplicates_suppressed;
  stats.faults.corruptions_detected += step.comm.corruptions_detected;
  stats.faults.retransmits += step.comm.retransmits;
  stats.faults.retransmit_bytes += step.comm.retransmit_bytes;
  stats.faults.forced_deliveries += step.comm.forced_deliveries;
  const double recovery =
      net.retransmit_seconds(step.comm.backoff_steps, step.comm.retransmit_bytes);
  stats.faults.retransmit_seconds += recovery;
  stats.network_seconds += recovery;
}

}  // namespace

MfbcRun mfbc_bc(const Graph& g, const std::vector<VertexId>& sources, const MfbcOptions& options) {
  MfbcRun run;
  run.result.sources = sources;
  run.result.bc.assign(g.num_vertices(), 0.0);
  if (options.collect_tables) {
    run.result.dist.assign(sources.size(),
                           std::vector<std::uint32_t>(g.num_vertices(), kInfDist));
    run.result.sigma.assign(sources.size(), std::vector<double>(g.num_vertices(), 0.0));
    run.result.delta.assign(sources.size(), std::vector<double>(g.num_vertices(), 0.0));
  }
  if (g.num_vertices() == 0 || sources.empty()) return run;

  matrix::DistBcOptions eopts;
  eopts.num_hosts = std::max<std::uint32_t>(options.num_hosts, 1);
  eopts.replication = std::max<std::uint32_t>(options.replication, 1);
  eopts.parallel_hosts = options.parallel_hosts;
  eopts.delivery = options.delivery;
  eopts.delivery.codec = options.codec;
  matrix::DistBcEngine engine(g, eopts);
  const matrix::ProcessGrid& grid = engine.grid();

  const std::uint32_t k = std::max<std::uint32_t>(options.batch_size, 1);
  const VertexId n = g.num_vertices();
  for (std::size_t begin = 0; begin < sources.size(); begin += k) {
    const std::size_t end = std::min(sources.size(), begin + k);
    std::vector<VertexId> batch(sources.begin() + begin, sources.begin() + end);
    engine.begin_batch(batch);

    obs::Span fwd_span(obs::Category::kAlgo, "forward");
    while (!engine.forward_done()) {
      ++run.forward.rounds;
      // Tags the step's host-compute and scatter spans with its iteration.
      const obs::ScopedContext ctx(obs::kEngineHost,
                                   static_cast<std::uint32_t>(run.forward.rounds));
      const matrix::DistBcStep step = engine.forward_step();
      account_step(run.forward, options.network, step, grid);
    }
    fwd_span.close();

    obs::Span bwd_span(obs::Category::kAlgo, "backward");
    for (std::uint32_t level = engine.max_level(); level >= 1; --level) {
      ++run.backward.rounds;
      const obs::ScopedContext ctx(obs::kEngineHost,
                                   static_cast<std::uint32_t>(run.backward.rounds));
      const matrix::DistBcStep step = engine.backward_level(level);
      account_step(run.backward, options.network, step, grid);
    }
    bwd_span.close();

    for (VertexId v = 0; v < n; ++v) {
      for (std::size_t sidx = 0; sidx < batch.size(); ++sidx) {
        const matrix::DistSigma& cell = engine.table_at(v, sidx);
        if (batch[sidx] != v && cell.dist != kInfDist) {
          run.result.bc[v] += engine.delta_at(v, sidx);
        }
        if (options.collect_tables) {
          run.result.dist[begin + sidx][v] = cell.dist;
          run.result.sigma[begin + sidx][v] = cell.sigma;
          run.result.delta[begin + sidx][v] = engine.delta_at(v, sidx);
        }
      }
    }
  }
  return run;
}

}  // namespace mrbc::baselines
