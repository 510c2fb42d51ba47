// bc_tool: command-line driver mirroring the paper artifact's bc_level /
// bc_mr executables — run any of the five BC implementations on an
// edge-list file or a generated graph, with the knobs the evaluation
// sweeps (hosts, partition policy, batch size, source count).
//
//   bc_tool --algo mrbc --input graph.txt --hosts 8 --sources 64
//   bc_tool --algo sbbc --gen rmat --scale 12 --sources 32 --csv out.csv
//
// Prints the sanity-check aggregates the artifact uses to verify runs
// across algorithms (max BC, sum of BC, number of nonzero vertices) plus
// the execution profile.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "baselines/abbc.h"
#include "baselines/brandes_seq.h"
#include "baselines/mfbc.h"
#include "baselines/sbbc.h"
#include "baselines/weighted_bc.h"
#include "core/congest_mrbc.h"
#include "comm/codec.h"
#include "core/mrbc.h"
#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/csv.h"
#include "util/thread_pool.h"

namespace {

using namespace mrbc;

struct Args {
  std::string algo = "mrbc";  // mrbc | congest | sbbc | abbc | mfbc | brandes
  std::string input;          // edge-list path; empty => generate
  std::string gen = "rmat";   // rmat | kron | er | road | web
  int scale = 11;
  double edge_factor = 8.0;
  std::uint32_t hosts = 4;
  std::uint32_t threads = 0;  // 0 = MRBC_THREADS env or hardware threads
  std::uint32_t sources = 32;
  std::uint32_t batch = 32;
  std::uint32_t replication = 1;  // MFBC process-grid replication factor c
  std::uint64_t seed = 1;
  std::string policy = "cvc";  // cvc | ec-src | ec-dst | gvc | random
  std::string codec = "raw";   // raw | metadata | full
  std::string csv;             // per-vertex BC dump path
  std::string checkpoint_dir;  // durable restart-from-disk checkpoints
  bool resume = false;         // continue from the snapshot in checkpoint_dir
  bool no_delayed_sync = false;
  bool weighted = false;       // run the weighted variants instead
  std::uint32_t max_weight = 10;
  std::string stats_file;      // Galois-style key=value statistics dump
  std::string trace_json;      // Chrome trace-event timeline dump
  std::string metrics_json;    // histogram/percentile dump
  bool progress = false;       // live per-round progress on stderr
  int serve_port = -1;         // >= 0: run the BC service daemon instead
  std::uint32_t serve_threads = 4;
  std::size_t checkpoint_every = 0;  // serve mode: batches between checkpoints
  bool no_analytics = false;         // serve mode: skip pagerank/cc/kcore
  bool no_telemetry = false;         // serve mode: disable the telemetry plane
  std::uint32_t slow_request_ms = serve::kSlowRequestMsUnset;  // serve mode
};

/// Set by the SIGINT/SIGTERM handler; batch runs consult it at durable
/// checkpoint boundaries (checkpoint-then-exit), serve mode drains on it.
std::atomic<bool> g_halt{false};

extern "C" void bc_tool_on_signal(int) { g_halt.store(true, std::memory_order_release); }

void install_signal_handlers() {
  std::signal(SIGINT, bc_tool_on_signal);
  std::signal(SIGTERM, bc_tool_on_signal);
}

void usage(const char* prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --algo <mrbc|congest|sbbc|abbc|mfbc|brandes>   algorithm (default mrbc)\n"
      "  --input <file>        edge-list file ('src dst' per line)\n"
      "  --gen <rmat|kron|er|road|web>  generator when no input (default rmat)\n"
      "  --scale <n>           generator scale, 2^n vertices (default 11)\n"
      "  --edge-factor <f>     edges per vertex (default 8)\n"
      "  --hosts <n>           simulated hosts (default 4)\n"
      "  --threads <n>         worker threads for host phases and sync kernels\n"
      "                        (default: MRBC_THREADS env, else hardware; 1 =\n"
      "                        sequential; results are identical either way)\n"
      "  --sources <k>         sampled sources, 0 = all vertices (default 32)\n"
      "  --batch <k>           MRBC/MFBC batch size (default 32)\n"
      "  --replication <c>     MFBC process-grid replication factor (default 1;\n"
      "                        must divide --hosts, be a power of two, and be\n"
      "                        <= 8; scores are bit-identical across values)\n"
      "  --policy <cvc|ec-src|ec-dst|gvc|random>  partition policy\n"
      "  --codec <raw|metadata|full>  wire compression (default raw; full =\n"
      "                        varint/delta/frame-of-reference, bit-identical results)\n"
      "  --seed <s>            RNG seed (default 1)\n"
      "  --no-delayed-sync     disable the Section 4.3 optimization\n"
      "  --weighted            random weights in [1, max-weight]; algo must be\n"
      "                        brandes, abbc, or mfbc (weighted variants)\n"
      "  --max-weight <w>      weight range for --weighted (default 10)\n"
      "  --csv <file>          write per-vertex BC scores\n"
      "  --checkpoint-dir <d>  persist durable checkpoints to <d> (mrbc/sbbc);\n"
      "                        a killed run restarted with --resume produces\n"
      "                        bit-identical scores and round counts\n"
      "  --resume              continue from the snapshot in --checkpoint-dir\n"
      "  --stats-file <file>   write key=value run statistics (artifact format)\n"
      "  --trace-json <file>   write a Chrome trace-event timeline (chrome://tracing\n"
      "                        or https://ui.perfetto.dev)\n"
      "  --metrics-json <file> write histogram metrics (message sizes, round bytes,\n"
      "                        span durations) with p50/p90/p99\n"
      "  --progress            live per-round progress line on stderr\n"
      "  --serve <port>        run the BC service daemon on 127.0.0.1:<port>\n"
      "                        (0 = ephemeral; the bound port is printed).\n"
      "                        Serves /bc /topk /pagerank /cc /kcore /stats and\n"
      "                        POST /ingest; --checkpoint-dir persists the engine\n"
      "                        across restarts; SIGINT/SIGTERM drains gracefully\n"
      "  --serve-threads <n>   request-handler threads (default 4)\n"
      "  --checkpoint-every <n> serve mode: checkpoint every n applied batches\n"
      "                        (default 0 = only on drain)\n"
      "  --no-analytics        serve mode: skip per-epoch pagerank/cc/kcore\n"
      "  --slow-request-ms <ms> serve mode: requests at least this slow land in\n"
      "                        the GET /debug/slow log (default 250, or the\n"
      "                        MRBC_SLOW_REQUEST_MS environment variable)\n"
      "  --no-telemetry        serve mode: disable /metrics, /debug/slow, windowed\n"
      "                        metrics and request ids (recording sites stay at\n"
      "                        their disabled-cost budget)\n",
      prog);
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--algo")) args.algo = next("--algo");
    else if (!std::strcmp(argv[i], "--input")) args.input = next("--input");
    else if (!std::strcmp(argv[i], "--gen")) args.gen = next("--gen");
    else if (!std::strcmp(argv[i], "--scale")) args.scale = std::atoi(next("--scale"));
    else if (!std::strcmp(argv[i], "--edge-factor")) args.edge_factor = std::atof(next("--edge-factor"));
    else if (!std::strcmp(argv[i], "--hosts")) args.hosts = static_cast<std::uint32_t>(std::atoi(next("--hosts")));
    else if (!std::strcmp(argv[i], "--threads")) args.threads = static_cast<std::uint32_t>(std::atoi(next("--threads")));
    else if (!std::strcmp(argv[i], "--sources")) args.sources = static_cast<std::uint32_t>(std::atoi(next("--sources")));
    else if (!std::strcmp(argv[i], "--batch")) args.batch = static_cast<std::uint32_t>(std::atoi(next("--batch")));
    else if (!std::strcmp(argv[i], "--replication")) args.replication = static_cast<std::uint32_t>(std::atoi(next("--replication")));
    else if (!std::strcmp(argv[i], "--policy")) args.policy = next("--policy");
    else if (!std::strcmp(argv[i], "--codec")) args.codec = next("--codec");
    else if (!std::strcmp(argv[i], "--seed")) args.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--no-delayed-sync")) args.no_delayed_sync = true;
    else if (!std::strcmp(argv[i], "--weighted")) args.weighted = true;
    else if (!std::strcmp(argv[i], "--max-weight")) args.max_weight = static_cast<std::uint32_t>(std::atoi(next("--max-weight")));
    else if (!std::strcmp(argv[i], "--csv")) args.csv = next("--csv");
    else if (!std::strcmp(argv[i], "--checkpoint-dir")) args.checkpoint_dir = next("--checkpoint-dir");
    else if (!std::strncmp(argv[i], "--checkpoint-dir=", 17)) args.checkpoint_dir = argv[i] + 17;
    else if (!std::strcmp(argv[i], "--resume")) args.resume = true;
    else if (!std::strcmp(argv[i], "--stats-file")) args.stats_file = next("--stats-file");
    else if (!std::strcmp(argv[i], "--trace-json")) args.trace_json = next("--trace-json");
    else if (!std::strncmp(argv[i], "--trace-json=", 13)) args.trace_json = argv[i] + 13;
    else if (!std::strcmp(argv[i], "--metrics-json")) args.metrics_json = next("--metrics-json");
    else if (!std::strncmp(argv[i], "--metrics-json=", 15)) args.metrics_json = argv[i] + 15;
    else if (!std::strcmp(argv[i], "--progress")) args.progress = true;
    else if (!std::strcmp(argv[i], "--serve")) args.serve_port = std::atoi(next("--serve"));
    else if (!std::strncmp(argv[i], "--serve=", 8)) args.serve_port = std::atoi(argv[i] + 8);
    else if (!std::strcmp(argv[i], "--serve-threads")) args.serve_threads = static_cast<std::uint32_t>(std::atoi(next("--serve-threads")));
    else if (!std::strcmp(argv[i], "--checkpoint-every")) args.checkpoint_every = static_cast<std::size_t>(std::atoll(next("--checkpoint-every")));
    else if (!std::strncmp(argv[i], "--checkpoint-every=", 19)) args.checkpoint_every = static_cast<std::size_t>(std::atoll(argv[i] + 19));
    else if (!std::strcmp(argv[i], "--no-analytics")) args.no_analytics = true;
    else if (!std::strcmp(argv[i], "--no-telemetry")) args.no_telemetry = true;
    else if (!std::strcmp(argv[i], "--slow-request-ms")) args.slow_request_ms = static_cast<std::uint32_t>(std::atoi(next("--slow-request-ms")));
    else if (!std::strncmp(argv[i], "--slow-request-ms=", 18)) args.slow_request_ms = static_cast<std::uint32_t>(std::atoi(argv[i] + 18));
    else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

partition::Policy parse_policy(const std::string& name) {
  if (name == "cvc") return partition::Policy::kCartesianVertexCut;
  if (name == "ec-src") return partition::Policy::kEdgeCutSrc;
  if (name == "ec-dst") return partition::Policy::kEdgeCutDst;
  if (name == "gvc") return partition::Policy::kGeneralVertexCut;
  if (name == "random") return partition::Policy::kRandomEdge;
  std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
  std::exit(2);
}

graph::Graph load_graph(const Args& args) {
  if (!args.input.empty()) return graph::read_edge_list(args.input);
  if (args.gen == "rmat") {
    return graph::rmat({.scale = args.scale, .edge_factor = args.edge_factor, .seed = args.seed});
  }
  if (args.gen == "kron") return graph::kronecker(args.scale, args.edge_factor, args.seed);
  if (args.gen == "er") {
    const auto n = graph::VertexId{1} << args.scale;
    return graph::erdos_renyi(n, args.edge_factor / static_cast<double>(n), args.seed);
  }
  if (args.gen == "road") {
    const auto side = graph::VertexId{1} << (args.scale / 2);
    return graph::road_grid(side, side, 0.05, args.seed);
  }
  if (args.gen == "web") {
    return graph::web_crawl_like(args.scale, args.edge_factor, 8, 40, args.seed);
  }
  std::fprintf(stderr, "unknown generator '%s'\n", args.gen.c_str());
  std::exit(2);
}

void print_sanity(const core::BcScores& bc) {
  // The artifact's sanity-check output: aggregates that must agree across
  // algorithm implementations for the same sources.
  double max_bc = 0, sum_bc = 0;
  std::size_t nonzero = 0;
  for (double b : bc) {
    max_bc = std::max(max_bc, b);
    sum_bc += b;
    if (b > 0) ++nonzero;
  }
  std::printf("sanity: max_bc=%.6f sum_bc=%.6f nonzero=%zu\n", max_bc, sum_bc, nonzero);
}

void print_profile(const char* what, const sim::RunStats& stats) {
  std::printf("%s: rounds=%zu msgs=%zu bytes=%zu compute=%.4fs network=%.4fs imbalance=%.2f\n",
              what, stats.rounds, stats.messages, stats.bytes, stats.compute_seconds,
              stats.network_seconds, stats.mean_imbalance());
  const sim::PhaseBreakdown& ph = stats.phases;
  if (ph.total() > 0) {
    std::printf("%s-phases: comm=%.4fs compute=%.4fs checkpoint=%.4fs recovery=%.4fs\n", what,
                ph.comm_seconds, ph.compute_seconds, ph.checkpoint_seconds, ph.recovery_seconds);
  }
}

/// --stats-file contents: "key=value" lines in the paper artifact's
/// statistics-file format, counters then values, each sorted by key.
struct StatsFile {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> values;

  /// False when `path` cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& [key, value] : counters) {
      std::fprintf(f, "%s=%llu\n", key.c_str(), static_cast<unsigned long long>(value));
    }
    for (const auto& [key, value] : values) std::fprintf(f, "%s=%.9g\n", key.c_str(), value);
    return std::fclose(f) == 0;
  }
};

StatsFile g_stats;

void record_profile(const char* phase, const sim::RunStats& stats) {
  const std::string p(phase);
  g_stats.counters[p + ".rounds"] = stats.rounds;
  g_stats.counters[p + ".messages"] = stats.messages;
  g_stats.counters[p + ".bytes"] = stats.bytes;
  g_stats.values[p + ".compute_seconds"] = stats.compute_seconds;
  g_stats.values[p + ".network_seconds"] = stats.network_seconds;
  g_stats.values[p + ".load_imbalance"] = stats.mean_imbalance();
  g_stats.values[p + ".comm_seconds"] = stats.phases.comm_seconds;
  g_stats.values[p + ".checkpoint_seconds"] = stats.phases.checkpoint_seconds;
  g_stats.values[p + ".recovery_seconds"] = stats.phases.recovery_seconds;
}

/// Prints a distributed run's forward/backward profile and records it for
/// --stats-file.
template <typename Run>
void report(const Run& run) {
  print_profile("forward", run.forward);
  print_profile("backward", run.backward);
  record_profile("forward", run.forward);
  record_profile("backward", run.backward);
}

/// The shared MRBC/SBBC configuration, from the flags.
void fill_engine_options(core::EngineOptions& o, const Args& args, comm::CodecMode codec,
                         bool parallel) {
  o.num_hosts = args.hosts;
  o.policy = parse_policy(args.policy);
  o.cluster.parallel_hosts = parallel;
  o.cluster.codec = codec;
  o.checkpoint_dir = args.checkpoint_dir;
  o.resume = args.resume;
  o.halt_flag = &g_halt;
}

/// Exit of a run that SIGINT/SIGTERM stopped at a durable snapshot write.
int halted_by_signal(const Args& args) {
  std::printf("halted by signal: durable checkpoint persisted in %s; "
              "rerun with --resume to continue\n",
              args.checkpoint_dir.c_str());
  return 0;
}

int run_serve(const Args& args, graph::Graph g) {
  serve::ServerOptions sopts;
  sopts.port = static_cast<std::uint16_t>(args.serve_port);
  sopts.request_threads = args.serve_threads;
  sopts.run_analytics = !args.no_analytics;
  sopts.telemetry = !args.no_telemetry;
  sopts.slow_request_ms = args.slow_request_ms;
  sopts.checkpoint_dir = args.checkpoint_dir;
  sopts.checkpoint_every = args.checkpoint_every;
  sopts.bc.num_samples = args.sources == 0 ? 64 : args.sources;
  sopts.bc.seed = args.seed;
  sopts.bc.mrbc.num_hosts = args.hosts;
  sopts.bc.mrbc.policy = parse_policy(args.policy);
  sopts.bc.mrbc.cluster.parallel_hosts = util::ThreadPool::global().parallelism() > 1;

  install_signal_handlers();
  serve::Server server(std::move(g), std::move(sopts));
  server.start();
  std::printf("serving on http://127.0.0.1:%u (epoch %llu, %u samples)\n", server.port(),
              static_cast<unsigned long long>(server.engine_epoch()),
              args.sources == 0 ? 64u : args.sources);
  std::printf(
      "endpoints: /healthz /epoch /bc /topk /pagerank /cc /kcore /stats /metrics "
      "/debug/slow /debug/trace, POST /ingest\n");
  std::fflush(stdout);
  while (!g_halt.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("signal received: draining\n");
  std::fflush(stdout);
  server.stop();
  std::printf("drained: served=%llu epochs=%llu\n",
              static_cast<unsigned long long>(server.counters().requests_served.load()),
              static_cast<unsigned long long>(server.counters().epochs_published.load()));
  return 0;
}

}  // namespace

static int run_tool(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage(argv[0]);
    return 2;
  }
  // Outside serve mode only MRBC and SBBC checkpoint; anywhere else the
  // flags would be ignored while still trapping SIGINT.
  const bool durable_algo = !args.weighted && (args.algo == "mrbc" || args.algo == "sbbc");
  if (args.serve_port < 0 && !durable_algo && (!args.checkpoint_dir.empty() || args.resume)) {
    std::fprintf(stderr, "--checkpoint-dir and --resume need --algo mrbc or sbbc%s (got '%s')\n",
                 args.weighted ? " without --weighted" : "", args.algo.c_str());
    return 2;
  }
  // Observability hooks come up before any graph or algorithm work so the
  // timeline covers the whole run.
  if (!args.trace_json.empty()) obs::Tracer::global().enable();
  if (!args.metrics_json.empty()) obs::Metrics::global().enable();
  if (args.progress) obs::set_progress(true);
  // Size the shared pool once up front; host phases and the sync/compute
  // kernels all dispatch to it. Results are thread-count independent.
  util::ThreadPool::set_global_threads(args.threads);
  const bool parallel = util::ThreadPool::global().parallelism() > 1;
  std::printf("threads: %zu\n", util::ThreadPool::global().parallelism());
  comm::CodecMode codec = comm::CodecMode::kRaw;
  if (!comm::parse_codec_mode(args.codec, codec)) {
    std::fprintf(stderr, "unknown codec '%s' (raw|metadata|full)\n", args.codec.c_str());
    return 2;
  }
  graph::Graph g = load_graph(args);
  std::printf("graph: n=%u m=%llu maxout=%zu maxin=%zu\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), g.max_out_degree(),
              g.max_in_degree());
  if (g.num_vertices() == 0) {
    std::fprintf(stderr, "empty graph\n");
    return 1;
  }
  if (args.serve_port >= 0) return run_serve(args, std::move(g));
  // Batch runs with durable checkpoints get checkpoint-then-exit on
  // SIGINT/SIGTERM instead of dying mid-write; without a checkpoint dir
  // the default signal disposition is the right behavior.
  if (!args.checkpoint_dir.empty()) install_signal_handlers();

  std::vector<graph::VertexId> sources;
  if (args.sources == 0) {
    sources.resize(g.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  } else {
    sources = graph::sample_sources(g, args.sources, args.seed);
  }
  std::printf("sources: %zu (estimated diameter %u)\n", sources.size(),
              graph::estimated_diameter(g, sources));

  core::BcScores bc;
  if (args.weighted) {
    graph::WeightedGraph wg = graph::with_random_weights(
        graph::Graph(g.out_offsets(), g.out_targets()), 1, args.max_weight, args.seed + 7);
    if (args.algo == "brandes") {
      bc = baselines::brandes_weighted_bc(wg, sources).bc;
    } else if (args.algo == "abbc") {
      auto run = baselines::abbc_weighted_bc(wg, sources, {});
      std::printf("abbc-weighted: seconds=%.4f pushes=%zu\n", run.seconds, run.worklist_pushes);
      bc = std::move(run.result.bc);
    } else if (args.algo == "mfbc") {
      baselines::MfbcWeightedOptions opts;
      opts.num_hosts = args.hosts;
      opts.batch_size = args.batch;
      auto run = baselines::mfbc_weighted_bc(wg, sources, opts);
      report(run);
      bc = std::move(run.result.bc);
    } else {
      std::fprintf(stderr, "--weighted supports brandes, abbc, mfbc (got '%s')\n",
                   args.algo.c_str());
      return 2;
    }
  } else if (args.algo == "mrbc") {
    core::MrbcOptions opts;
    fill_engine_options(opts, args, codec, parallel);
    opts.batch_size = args.batch;
    opts.delayed_sync = !args.no_delayed_sync;
    auto run = core::mrbc_bc(g, sources, opts);
    if (run.halted) return halted_by_signal(args);
    report(run);
    g_stats.values["replication_factor"] = run.replication_factor;
    if (run.anomalies) std::printf("WARNING: %zu pipelining anomalies\n", run.anomalies);
    bc = std::move(run.result.bc);
  } else if (args.algo == "congest") {
    auto run = core::congest_mrbc(g, sources);
    std::printf("congest: fwd_rounds=%zu acc_rounds=%zu apsp_msgs=%zu acc_msgs=%zu\n",
                run.metrics.forward_rounds, run.metrics.accumulation_rounds,
                run.metrics.apsp_messages, run.metrics.accumulation_messages);
    bc = std::move(run.result.bc);
  } else if (args.algo == "sbbc") {
    baselines::SbbcOptions opts;
    fill_engine_options(opts, args, codec, parallel);
    auto run = baselines::sbbc_bc(g, sources, opts);
    if (run.halted) return halted_by_signal(args);
    report(run);
    bc = std::move(run.result.bc);
  } else if (args.algo == "abbc") {
    auto run = baselines::abbc_bc(g, sources, {});
    std::printf("abbc: seconds=%.4f worklist_pushes=%zu\n", run.seconds, run.worklist_pushes);
    bc = std::move(run.result.bc);
  } else if (args.algo == "mfbc") {
    baselines::MfbcOptions opts;
    opts.num_hosts = args.hosts;
    opts.batch_size = args.batch;
    opts.parallel_hosts = parallel;
    opts.codec = codec;
    opts.replication = args.replication;
    auto run = baselines::mfbc_bc(g, sources, opts);
    report(run);
    bc = std::move(run.result.bc);
  } else if (args.algo == "brandes") {
    bc = baselines::brandes_bc_sources(g, sources).bc;
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", args.algo.c_str());
    usage(argv[0]);
    return 2;
  }

  print_sanity(bc);
  if (!args.csv.empty()) {
    util::CsvWriter csv(args.csv, {"vertex", "bc"});
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      csv.add_row({std::to_string(v), std::to_string(bc[v])});
    }
    std::printf("wrote %s\n", args.csv.c_str());
  }
  if (!args.stats_file.empty()) {
    g_stats.counters["graph.vertices"] = g.num_vertices();
    g_stats.counters["graph.edges"] = g.num_edges();
    g_stats.counters["sources"] = sources.size();
    if (!g_stats.write(args.stats_file)) {
      std::fprintf(stderr, "cannot write stats file: %s\n", args.stats_file.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.stats_file.c_str());
  }
  if (!args.trace_json.empty()) {
    obs::Tracer::global().write_chrome_json(args.trace_json);
    std::printf("wrote %s (%zu spans, %zu dropped)\n", args.trace_json.c_str(),
                obs::Tracer::global().size(), obs::Tracer::global().dropped());
  }
  if (!args.metrics_json.empty()) {
    obs::Metrics::global().write_json(args.metrics_json);
    std::printf("wrote %s\n", args.metrics_json.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const mrbc::sim::SnapshotError& e) {
    std::fprintf(stderr, "checkpoint error: %s\n", e.what());
    return 1;
  } catch (const std::invalid_argument& e) {
    // e.g. an illegal --replication / --hosts combination (matrix/grid.h).
    std::fprintf(stderr, "invalid option: %s\n", e.what());
    return 1;
  }
}
