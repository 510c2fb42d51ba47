#include "baselines/mfbc.h"

#include <algorithm>

#include "matrix/dist_engine.h"
#include "obs/trace.h"

namespace mrbc::baselines {

using graph::kInfDist;

namespace {

/// Folds the last backward level's all-reduce into the backward stats. It
/// runs after the loop, so it is charged as one more communication phase of
/// the loop's last round: NetworkModel::phase_seconds, no second barrier.
void fold_final_reduce(sim::RunStats& stats, const comm::SyncStats& comm,
                       const sim::NetworkModel& net) {
  std::size_t max_msgs = 0;
  std::size_t max_bytes = 0;
  for (std::size_t m : comm.msgs_per_host) max_msgs = std::max(max_msgs, m);
  for (std::size_t b : comm.bytes_per_host) max_bytes = std::max(max_bytes, b);
  const double sync_seconds = net.phase_seconds(max_msgs, max_bytes);
  const double retransmit_seconds =
      net.retransmit_seconds(comm.backoff_steps, comm.retransmit_bytes);
  stats.add_comm(comm, sync_seconds, retransmit_seconds);
  if (obs::tracing_enabled()) {
    obs::Tracer::global().emit_modeled(obs::Category::kComm, "comm", obs::kEngineHost,
                                       static_cast<std::uint32_t>(stats.rounds),
                                       sync_seconds + retransmit_seconds);
  }
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
  eopts.cluster.network = options.network;
  eopts.cluster.parallel_hosts = options.parallel_hosts;
  eopts.cluster.fault = options.fault;
  eopts.cluster.codec = options.codec;
  matrix::DistBcEngine engine(g, eopts);
  sim::BspLoop loop(engine.grid().hosts, eopts.cluster);
  const auto nothing_pending = [] { return false; };

  const std::uint32_t k = std::max<std::uint32_t>(options.batch_size, 1);
  const VertexId n = g.num_vertices();
  for (std::size_t begin = 0; begin < sources.size(); begin += k) {
    const std::size_t end = std::min(sources.size(), begin + k);
    std::vector<VertexId> batch(sources.begin() + begin, sources.begin() + end);
    engine.begin_batch(batch);

    obs::Span fwd_span(obs::Category::kAlgo, "forward");
    run.forward += loop.run([&](std::size_t) { return engine.forward_exchange(); },
                            [&](sim::HostId h, std::size_t) { return engine.forward_sweep(h); },
                            nothing_pending, &engine);
    fwd_span.close();

    // A batch whose sources reach no other vertex has no level to fire.
    if (engine.max_level() >= 1) {
      const obs::Span bwd_span(obs::Category::kAlgo, "backward");
      engine.begin_backward();
      sim::RunStats backward =
          loop.run([&](std::size_t) { return engine.backward_exchange(); },
                   [&](sim::HostId h, std::size_t) { return engine.backward_sweep(h); },
                   nothing_pending, &engine);
      fold_final_reduce(backward, engine.reduce_delta_partials(), options.network);
      run.backward += backward;
    }

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
