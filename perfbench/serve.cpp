// Serve stage: an in-process serve::Server over loopback HTTP with two
// closed-loop query clients, one open-loop writer and one freshness prober,
// each on its own keep-alive connection.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "analytics/connected_components.h"
#include "analytics/kcore.h"
#include "analytics/pagerank.h"
#include "ledger.h"
#include "obs/prometheus.h"
#include "serve/http.h"
#include "stages.h"
#include "stream/incremental_bc.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace serve = mrbc::serve;
namespace stream = mrbc::stream;
namespace util = mrbc::util;
using Clock = std::chrono::steady_clock;
using mrbc::graph::VertexId;

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// The read mix of bench/serve_load, so figures stay comparable with the
// committed BENCH_2026-08-08.json record.
enum Route : int { kBc, kTopk, kPagerank, kEpoch, kStats, kNumRoutes };
const char* const kRouteNames[kNumRoutes] = {"bc", "topk", "pagerank", "epoch", "stats"};

struct Query {
  Route route;
  std::string target;
};

Query pick_query(util::SplitMix64& rng, VertexId n) {
  const std::uint64_t pick = rng.next() % 10;
  if (pick < 4) return {kBc, "/bc?vertex=" + std::to_string(rng.next() % n)};
  if (pick < 6) return {kTopk, "/topk?k=10"};
  if (pick < 7) return {kTopk, "/topk?k=10&metric=pagerank"};
  if (pick < 8) return {kPagerank, "/pagerank?vertex=" + std::to_string(rng.next() % n)};
  if (pick < 9) return {kEpoch, "/epoch"};
  return {kStats, "/stats"};
}

struct QuerySample {
  float done_s;     ///< completion, seconds since the segment started
  float us;         ///< client-observed
  float server_us;  ///< X-Request-Us echo, -1 when absent
  Route route;
};

/// Samples one query client keeps. The buffer is sized and touched before
/// the load starts, so peak_rss_mb does not grow with the query rate.
constexpr std::size_t kMaxSamplesPerClient = std::size_t{1} << 20;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;  ///< 429
  std::uint64_t errors = 0;    ///< other non-2xx and transport errors
  void add(Tally o) {
    attempted += o.attempted;
    rejected += o.rejected;
    errors += o.errors;
  }
};

/// Acknowledged ingest batches, by ticket (both writers append).
struct AckLog {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, stream::EdgeBatch>> batches;
  void add(std::uint64_t ticket, stream::EdgeBatch b) {
    std::lock_guard<std::mutex> lock(mu);
    batches.emplace_back(ticket, std::move(b));
  }
};

std::string ingest_body(const stream::EdgeBatch& b) {
  util::JsonWriter w;
  w.begin_object().key("ops").begin_array();
  for (const stream::EdgeOp& op : b.ops) {
    w.begin_array()
        .value(op.kind == stream::EdgeOpKind::kInsert ? "+" : "-")
        .value(std::uint64_t{op.edge.src})
        .value(std::uint64_t{op.edge.dst})
        .end_array();
  }
  w.end_array().end_object();
  return w.take();
}

/// Random churn: 3 inserts per delete, no self loops.
stream::EdgeBatch churn_batch(util::SplitMix64& rng, VertexId n, std::uint32_t ops) {
  stream::EdgeBatch b;
  while (b.size() < ops) {
    const auto u = static_cast<VertexId>(rng.next() % n);
    const auto v = static_cast<VertexId>(rng.next() % n);
    if (u == v) continue;
    if (rng.next() % 4 != 0) {
      b.insert(u, v);
    } else {
      b.erase(u, v);
    }
  }
  return b;
}

/// POSTs `b`; on 2xx records the ticket in `acks`. Returns the status
/// (0 on a transport error).
int post_batch(serve::HttpClient& c, const std::string& target, const stream::EdgeBatch& b,
               AckLog& acks) {
  try {
    const auto resp = c.post(target, ingest_body(b));
    if (resp.status / 100 == 2) {
      acks.add(util::json_parse(resp.body).at("ticket").as_u64(), b);
    }
    return resp.status;
  } catch (const std::exception&) {
    return 0;
  }
}

void count_status(Tally& t, int status) {
  ++t.attempted;
  if (status == 429) {
    ++t.rejected;
  } else if (status / 100 != 2) {
    ++t.errors;
  }
}

double prom_value(const std::vector<mrbc::obs::PromSample>& samples, const char* name,
                  const mrbc::obs::PromLabels& labels) {
  const mrbc::obs::PromSample* s = mrbc::obs::prom_find(samples, name, labels);
  return s != nullptr ? s->value : 0.0;
}

}  // namespace

serve::ServerOptions server_options(const Config& c, std::uint64_t seed) {
  serve::ServerOptions o;
  o.request_threads = kRequestThreads;
  o.max_pending_requests = 256;  // as bench/serve_load; ingest keeps its default
  o.run_analytics = true;
  o.bc.num_samples = c.serve_samples;
  o.bc.seed = seed;
  o.bc.mrbc.num_hosts = c.serve_hosts;
  o.bc.mrbc.cluster.threads = kPoolThreads;
  o.bc.mrbc.cluster.parallel_hosts = kPoolThreads > 1;
  return o;
}

struct ServeStage::State {
  State(const Config& c_, const mrbc::graph::Graph& base_, serve::Server& server_,
        const RunOptions& opt_, Report& report_)
      : c(c_), base(base_), server(server_), opt(opt_), report(report_),
        samples(kQueryClients,
                std::vector<QuerySample>(kMaxSamplesPerClient, QuerySample{0, 0, 0, kBc})),
        sample_count(kQueryClients, 0),
        query_tally(kQueryClients) {}

  const Config& c;
  const mrbc::graph::Graph& base;
  serve::Server& server;
  const RunOptions& opt;
  Report& report;

  std::size_t segments = 0;
  double load_seconds = 0;
  std::uint64_t epochs = 0;  ///< published while loaded
  AckLog acks;
  std::vector<std::vector<QuerySample>> samples;
  std::vector<std::size_t> sample_count;
  std::vector<Tally> query_tally;
  Tally writer_tally, prober_tally, drain_tally;
  std::vector<double> ack_us, lateness_us, visible_ms;
  /// Per second of load: reads completed, their p50, p90 and p99.
  std::vector<double> window_qps, window_p50, window_p90, window_p99;

  /// One segment: the clients, writer and prober run for `seconds`.
  void load(double seconds);
  /// Posts one op with ?wait=1 and waits for it: every batch admitted
  /// before it is then applied, and the ingest thread, which shares the
  /// compute pool with the batch stage, is idle.
  void drain();
  /// Folds the segment's samples from `first[t]` on into per-second windows.
  void windows(const std::vector<std::size_t>& first, double seconds);
};

void ServeStage::State::load(double seconds) {
  const VertexId n = base.num_vertices();
  const std::uint16_t port = server.port();
  const std::uint64_t stream_seed = opt.seed * 1000 + segments * 7919;
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  // Closed-loop readers: each sends its next query when the reply lands.
  for (std::size_t t = 0; t < kQueryClients; ++t) {
    threads.emplace_back([&, t] {
      serve::HttpClient client(port, /*keep_alive=*/true);
      util::SplitMix64 rng(stream_seed + t + 1);
      std::vector<QuerySample>& out = samples[t];
      std::size_t& count = sample_count[t];
      while (!stop.load(std::memory_order_acquire)) {
        const Query q = pick_query(rng, n);
        const Clock::time_point t0 = Clock::now();
        int status = 0;
        double server_us = -1;
        try {
          const auto resp = client.get(q.target);
          status = resp.status;
          const auto it = resp.headers.find("x-request-us");
          if (it != resp.headers.end()) server_us = std::atof(it->second.c_str());
        } catch (const std::exception&) {
        }
        const Clock::time_point t1 = Clock::now();
        count_status(query_tally[t], status);
        if (status == 200 && count < out.size()) {
          out[count++] = {static_cast<float>(us_between(start, t1) * 1e-6),
                          static_cast<float>(us_between(t0, t1)), static_cast<float>(server_us),
                          q.route};
        }
      }
    });
  }
  // Open loop: batch k is due at start + k * period whether or not the
  // previous POST has returned; latency counts from the due time.
  threads.emplace_back([&] {
    serve::HttpClient client(port, /*keep_alive=*/true);
    util::SplitMix64 rng(stream_seed + 101);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kWriterPeriodMs));
    for (std::uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
      const Clock::time_point due = start + period * static_cast<std::int64_t>(k);
      std::this_thread::sleep_until(due);
      lateness_us.push_back(us_between(due, Clock::now()));
      const int status = post_batch(client, "/ingest", churn_batch(rng, n, kWriterOps), acks);
      ack_us.push_back(us_between(due, Clock::now()));
      count_status(writer_tally, status);
    }
  });
  // Freshness prober: one op with ?wait=1, the next when the reply lands.
  threads.emplace_back([&] {
    serve::HttpClient client(port, /*keep_alive=*/true);
    util::SplitMix64 rng(stream_seed + 202);
    while (!stop.load(std::memory_order_acquire)) {
      const Clock::time_point t0 = Clock::now();
      const int status = post_batch(client, "/ingest?wait=1", churn_batch(rng, n, 1), acks);
      count_status(prober_tally, status);
      if (status == 200) visible_ms.push_back(us_between(t0, Clock::now()) * 1e-3);
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
}

void ServeStage::State::drain() {
  serve::HttpClient client(server.port(), /*keep_alive=*/false);
  stream::EdgeBatch one;
  one.insert(0, base.num_vertices() - 1);
  count_status(drain_tally, post_batch(client, "/ingest?wait=1", one, acks));
}

void ServeStage::State::windows(const std::vector<std::size_t>& first, double seconds) {
  // Read throughput and latency per second of load (a segment of s seconds
  // splits into floor(s) equal windows, at least one); the end-to-end
  // figures are the median window, so a burst of co-located load on a
  // shared machine spoils a few windows, not the figure.
  const std::size_t count = std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  const double width = seconds / static_cast<double>(count);
  std::vector<std::vector<double>> us(count);
  for (std::size_t t = 0; t < kQueryClients; ++t) {
    for (std::size_t i = first[t]; i < sample_count[t]; ++i) {
      const auto w = static_cast<std::size_t>(samples[t][i].done_s / width);
      if (w < us.size()) us[w].push_back(samples[t][i].us);
    }
  }
  for (const std::vector<double>& w : us) {
    window_qps.push_back(static_cast<double>(w.size()) / width);
    window_p50.push_back(quantile(w, 0.50));
    window_p90.push_back(quantile(w, 0.90));
    window_p99.push_back(quantile(w, 0.99));
  }
}

ServeStage::ServeStage(const Config& c, const mrbc::graph::Graph& base, serve::Server& server,
                       const RunOptions& opt, Report& report)
    : s_(std::make_unique<State>(c, base, server, opt, report)) {}

ServeStage::~ServeStage() = default;

void ServeStage::run_for(double seconds) {
  State& s = *s_;
  const std::vector<std::size_t> first = s.sample_count;
  const std::uint64_t epochs_before = s.server.counters().epochs_published.load();
  const Clock::time_point t0 = Clock::now();
  if (s.opt.trace) {
    Ledger ledger(std::size_t{1} << 21);
    const CallTrace trace = ledger.record("perfbench/serve", [&] { s.load(seconds); });
    s.report.add("stream.probe_s", trace.sum_seconds({"probe"}), "s");
    s.report.add("stream.rerun_s", trace.sum_seconds({"rerun"}), "s");
    s.report.add("obs.spans_dropped", static_cast<double>(ledger.dropped()), "count");
  } else {
    s.load(seconds);
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  s.drain();
  s.epochs += s.server.counters().epochs_published.load() - epochs_before;
  s.load_seconds += elapsed;
  s.windows(first, elapsed);
  ++s.segments;
}

void ServeStage::finish() {
  State& s = *s_;
  const Config& c = s.c;
  Report& report = s.report;
  const VertexId n = s.base.num_vertices();

  // The load's connections are closed and the last drain() has landed;
  // these requests get an idle worker.
  serve::HttpClient client(s.server.port(), /*keep_alive=*/true);
  Tally final_tally = s.drain_tally;
  std::vector<double> served;
  std::vector<mrbc::obs::PromSample> prom;
  try {
    const auto all = client.get("/bc?all=1");
    count_status(final_tally, all.status);
    if (all.status == 200) {
      const util::JsonValue doc = util::json_parse(all.body);
      for (const util::JsonValue& v : doc.at("bc").as_array()) served.push_back(v.as_double());
    }
    const auto metrics = client.get("/metrics");
    count_status(final_tally, metrics.status);
    if (metrics.status == 200) prom = mrbc::obs::prom_parse(metrics.body);
  } catch (const std::exception& e) {
    report.fail(std::string("final daemon reads failed: ") + e.what());
  }

  // Replica: the acknowledged ops in ticket order, applied to the base graph.
  std::sort(s.acks.batches.begin(), s.acks.batches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  stream::EdgeBatch all_ops;
  for (const auto& [ticket, b] : s.acks.batches) {
    all_ops.ops.insert(all_ops.ops.end(), b.ops.begin(), b.ops.end());
  }
  stream::IncrementalBc replica(s.base, server_options(c, s.opt.seed).bc);
  replica.apply(all_ops);
  const std::size_t bad = score_mismatches(served, replica.scaled_scores(), kScoreTolerance);
  report.check(bad == 0, "/bc?all=1 vs IncrementalBc replica (" + std::to_string(bad) + " of " +
                             std::to_string(n) + " scores off)");

  std::vector<double> all_us, handler_us, outside_us;
  std::vector<std::vector<double>> route_us(kNumRoutes);
  Tally tally;
  for (std::size_t t = 0; t < kQueryClients; ++t) {
    tally.add(s.query_tally[t]);
    for (std::size_t i = 0; i < s.sample_count[t]; ++i) {
      const QuerySample& q = s.samples[t][i];
      all_us.push_back(q.us);
      route_us[q.route].push_back(q.us);
      if (q.server_us >= 0) {
        handler_us.push_back(q.server_us);
        outside_us.push_back(q.us - q.server_us);
      }
    }
  }
  const Tally reads = tally;
  tally.add(s.writer_tally);
  tally.add(s.prober_tally);
  tally.add(final_tally);
  report.ops(tally.attempted, tally.rejected + tally.errors);

  // ---- end-to-end ----
  report.metric("serve.queries_per_s", median(s.window_qps), "1/s");
  report.metric("query_p50_us", median(s.window_p50), "us");
  report.metric("serve.query_p90_us", median(s.window_p90), "us");
  report.metric("stream.ingest_visible_ms", median(s.visible_ms), "ms");

  // ---- per layer ----
  report.metric("serve.query_p99_us", median(s.window_p99), "us");
  report.metric("serve.query_p999_us", quantile(all_us, 0.999), "us");
  for (int r = 0; r < kNumRoutes; ++r) {
    report.metric(std::string("serve.") + kRouteNames[r] + "_p50_us", median(route_us[r]), "us");
  }
  report.metric("serve.handler_p50_us", median(handler_us), "us");
  report.metric("serve.outside_handler_p50_us", median(outside_us), "us");
  report.metric("serve.ingest_ack_p50_us", median(s.ack_us), "us");
  report.metric("serve.epochs_per_s", static_cast<double>(s.epochs) / s.load_seconds, "1/s");
  report.metric("serve.rejected", static_cast<double>(tally.rejected), "count");
  report.metric("serve.errors", static_cast<double>(tally.errors), "count");
  const auto& counters = s.server.counters();
  const double applied = static_cast<double>(counters.batches_applied.load());
  report.metric("stream.coalescing",
                applied > 0 ? static_cast<double>(counters.batches_ingested.load()) / applied : 0,
                "ratio");
  report.metric("stream.apply_p50_ms",
                prom_value(prom, "mrbc_serve_window_apply_latency_us",
                           {{"quantile", "0.5"}, {"window", "1m"}}) *
                    1e-3,
                "ms");
  if (s.opt.trace) {
    const serve::ServerOptions so = server_options(c, s.opt.seed);
    const Clock::time_point a0 = Clock::now();
    mrbc::analytics::PagerankOptions pr;
    pr.max_iterations = so.pagerank_iterations;
    mrbc::analytics::pagerank(s.base, c.serve_hosts, pr);
    mrbc::analytics::connected_components(s.base, c.serve_hosts);
    mrbc::analytics::kcore(s.base, so.kcore_k, c.serve_hosts);
    report.metric("analytics.recompute_ms", us_between(a0, Clock::now()) * 1e-3, "ms");
  }

  report.context("serve_segments", static_cast<double>(s.segments));
  report.context("serve_seconds", s.load_seconds);
  report.context("serve_read_samples", static_cast<double>(all_us.size()));
  report.context("serve_reads_rejected", static_cast<double>(reads.rejected));
  report.context("serve_overall_qps", static_cast<double>(all_us.size()) / s.load_seconds);
  report.context("serve_overall_p50_us", quantile(all_us, 0.50));
  report.context("serve_overall_p99_us", quantile(all_us, 0.99));
  report.context("serve_probe_samples", static_cast<double>(s.visible_ms.size()));
  report.context("serve_connections", static_cast<double>(kQueryClients + 2));
  report.context("serve_request_threads", static_cast<double>(kRequestThreads));
  report.context("writer_batches", static_cast<double>(s.writer_tally.attempted));
  report.context("writer_lateness_p50_us", median(s.lateness_us));
  report.context("writer_lateness_max_us",
                 s.lateness_us.empty()
                     ? 0.0
                     : *std::max_element(s.lateness_us.begin(), s.lateness_us.end()));
  report.context("acked_ops", static_cast<double>(all_ops.size()));
}

}  // namespace perfbench
