// perfbench: the repository benchmark. One run = one workload and seed:
// set-up (timed several times), the batch stage, the serve stage, the
// correctness gates, then one JSON result line. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny]
//
// Run from the root of a checkout: the build, the durable checkpoints and
// the exact-value records (one set per build of this program) live under
// .bench_build/.
//   perfbench --self-test

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/brandes_seq.h"
#include "core/mrbc.h"
#include "graph/generators.h"
#include "report.h"
#include "serve/server.h"
#include "stages.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace graph = mrbc::graph;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Mirrors BENCHMARK.json's end_to_end list.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"mrbc_s", "s"},           {"mrbc_durable_s", "s"},
    {"sbbc_s", "s"},           {"mfbc_s", "s"},           {"wmfbc_s", "s"},
    {"mrbc_net_s", "s_modeled"}, {"sbbc_net_s", "s_modeled"}, {"mfbc_net_s", "s_modeled"},
    {"peak_rss_mb", "MB"},     {"query_p50_us", "us"},
};

// Printed with --trace 1. Mirrors BENCHMARK.json's per_layer list.
const MetricDef kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"partition.build_s", "s"},
    {"partition.replication", "ratio"},
    {"core.mrbc.host_compute_s", "s"},
    {"core.mrbc.critical_compute_s", "s"},
    {"core.mrbc.work_items", "count"},
    {"core.mrbc.ns_per_item", "ns"},
    {"core.mrbc.rounds", "count"},
    {"core.mrbc.pull_rounds", "count"},
    {"core.mrbc.imbalance", "ratio"},
    {"baselines.sbbc.host_compute_s", "s"},
    {"baselines.sbbc.rounds", "count"},
    {"baselines.wmfbc.rounds", "count"},
    {"baselines.wmfbc.bytes", "bytes"},
    {"matrix.mfbc.host_compute_s", "s"},
    {"matrix.mfbc.iterations", "count"},
    {"comm.mrbc.messages", "count"},
    {"comm.sbbc.messages", "count"},
    {"comm.mfbc.messages", "count"},
    {"comm.mrbc.bytes", "bytes"},
    {"comm.sbbc.bytes", "bytes"},
    {"comm.mfbc.bytes", "bytes"},
    {"comm.mrbc.codec_ratio", "ratio"},
    {"comm.sbbc.codec_ratio", "ratio"},
    {"comm.mfbc.codec_ratio", "ratio"},
    {"comm.mrbc.sync_s", "s"},
    {"comm.sbbc.sync_s", "s"},
    {"comm.mfbc.sync_s", "s"},
    {"engine.mrbc.round_overhead_us", "us"},
    {"engine.sbbc.round_overhead_us", "us"},
    {"engine.mrbc.unattributed_s", "s"},
    {"engine.sbbc.unattributed_s", "s"},
    {"engine.mfbc.unattributed_s", "s"},
    {"engine.mrbc_durable.checkpoints", "count"},
    {"engine.mrbc_durable.checkpoint_mb", "MB"},
    {"engine.mrbc_durable.overhead_s", "s"},
    {"util.mrbc_speedup", "ratio"},
    {"stream.ingest_visible_ms", "ms"},
    {"stream.apply_p50_ms", "ms"},
    {"stream.coalescing", "ratio"},
    {"stream.probe_s", "s"},
    {"stream.rerun_s", "s"},
    {"analytics.recompute_ms", "ms"},
    {"serve.start_s", "s"},
    {"serve.handler_p50_us", "us"},
    {"serve.outside_handler_p50_us", "us"},
    {"serve.bc_p50_us", "us"},
    {"serve.topk_p50_us", "us"},
    {"serve.pagerank_p50_us", "us"},
    {"serve.epoch_p50_us", "us"},
    {"serve.stats_p50_us", "us"},
    {"serve.queries_per_s", "1/s"},
    {"serve.query_p90_us", "us"},
    {"serve.query_p99_us", "us"},
    {"serve.query_p999_us", "us"},
    {"serve.ingest_ack_p50_us", "us"},
    {"serve.epochs_per_s", "1/s"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.spans_dropped", "count"},
};

/// Build tree, durable checkpoints and exact-value records, relative to the
/// checkout root the benchmark runs from.
constexpr const char* kWorkDir = ".bench_build";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  bool tiny = false;
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--self-test") {
      a.self_test = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return a.self_test ||
         (!a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1));
}

/// The checker must reject a perturbed score vector and accept the
/// reference itself.
int self_test() {
  const graph::Graph g = graph::rmat({.scale = 7, .edge_factor = 6.0, .seed = 3});
  const std::vector<graph::VertexId> sources = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<double> ref = mrbc::baselines::brandes_bc_sources(g, sources).bc;
  mrbc::core::MrbcOptions mo;
  mo.num_hosts = 4;
  mo.batch_size = 4;
  std::vector<double> got = mrbc::core::mrbc_bc(g, sources, mo).result.bc;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  expect(score_mismatches(got, ref, kScoreTolerance) == 0, "mrbc_bc scores pass the checker");
  std::size_t top = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] > got[top]) top = i;
  }
  got[top] *= 1.0 + 1e-6;
  expect(score_mismatches(got, ref, kScoreTolerance) == 1, "one perturbed score is caught");
  Report report;
  report.check(score_mismatches(got, ref, kScoreTolerance) == 0, "self-test perturbation");
  expect(!report.correct(), "a caught mismatch marks the run incorrect");
  got.pop_back();
  expect(score_mismatches(got, ref, kScoreTolerance) != 0, "a truncated vector is caught");
  std::vector<double> nan = ref;
  nan[0] = std::nan("");
  expect(score_mismatches(nan, ref, kScoreTolerance) == 1, "a NaN score is caught");
  return failures == 0 ? 0 : 1;
}

/// FNV-1a digest of this program's executable. The exact-value records are
/// kept per digest: they belong to the code that wrote them, so a record of
/// other code (say, an earlier commit built in the same checkout) is never
/// compared.
std::string code_digest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t bytes = 0;
  std::vector<char> buf(std::size_t{1} << 16);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[static_cast<std::size_t>(i)])) * 0x100000001b3ULL;
    }
    bytes += static_cast<std::size_t>(in.gcount());
  }
  if (bytes == 0) throw std::runtime_error("cannot read /proc/self/exe to key the exact record");
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// Compares the run's exact values with the record an earlier run of the
/// same program, workload and seed wrote, or writes that record.
void check_exact(const Exact& exact, const std::string& path, Report& report) {
  std::map<std::string, std::string> earlier;
  {
    std::ifstream in(path);
    std::string key, value;
    while (in >> key >> value) earlier[key] = value;
  }
  if (earlier.empty()) {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      for (const auto& [k, v] : exact.values()) out << k << ' ' << v << '\n';
    }
    std::filesystem::rename(tmp, path);
    report.context("exact_record", "written " + path);
    return;
  }
  std::string diff = Exact::first_difference(earlier, exact.values());
  if (diff.empty()) diff = Exact::first_difference(exact.values(), earlier);
  if (!diff.empty()) {
    report.fail("exact value " + diff + " differs from an earlier run of this seed (" + path + ")");
  }
  report.context("exact_record", "matched " + path);
}

/// Timings of one run's set-ups.
struct SetupTimes {
  std::vector<double> setup_s, gen_s, part_s, start_s;
};

void start_server(const Config& c, const graph::Graph& g, std::uint64_t seed,
                  std::unique_ptr<mrbc::serve::Server>& server, SetupTimes& t) {
  const Clock::time_point t0 = Clock::now();
  server = std::make_unique<mrbc::serve::Server>(g, server_options(c, seed));
  server->start();
  t.start_s.push_back(seconds_since(t0));
}

/// One timed set-up: generation, sources and the partition, and on the
/// serve workload (Config::server_in_setup) the daemon's construction and
/// start(), which lands in `server`.
Inputs set_up(const Config& c, std::uint64_t seed, std::unique_ptr<mrbc::serve::Server>& server,
              SetupTimes& t) {
  Inputs in;
  const Clock::time_point t0 = Clock::now();
  in.graph = generate(c, seed);
  t.gen_s.push_back(seconds_since(t0));
  in.weighted = graph::with_random_weights(in.graph, 1, kMaxWeight, seed);
  in.sources = pick_sources(c, in.graph, c.sources, seed);
  const Clock::time_point p0 = Clock::now();
  in.partition = std::make_unique<mrbc::partition::Partition>(
      in.graph, c.hosts, mrbc::partition::Policy::kCartesianVertexCut);
  t.part_s.push_back(seconds_since(p0));
  if (c.server_in_setup) start_server(c, in.graph, seed, server, t);
  t.setup_s.push_back(seconds_since(t0));
  return in;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& a) {
  const std::unique_ptr<Config> cfg = find_config(a.workload, a.tiny);
  if (!cfg) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Config& c = *cfg;
  Report report;
  RunOptions opt;
  opt.seed = a.seed;
  opt.trace = a.trace == 1;
  const std::string tag = c.name + (a.tiny ? "-tiny" : "") + "-seed" + std::to_string(a.seed);
  opt.checkpoint_dir = std::string(kWorkDir) + "/perfbench-ckpt/" + tag;
  mrbc::util::ThreadPool::set_global_threads(kPoolThreads);

  // The first set-up's objects are kept; the rest are spread over the
  // segments, so setup_s samples the whole run rather than its first
  // seconds.
  SetupTimes times;
  std::unique_ptr<mrbc::serve::Server> server;
  const Inputs in = set_up(c, a.seed, server, times);
  if (!server) start_server(c, in.graph, a.seed, server, times);
  const auto spare_setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_ptr<mrbc::serve::Server> spare;
      set_up(c, a.seed, spare, times);
    }
  };

  Exact exact;
  exact.put("graph.vertices", std::uint64_t{in.graph.num_vertices()});
  exact.put("graph.edges", std::uint64_t{in.graph.num_edges()});
  exact.put("partition.replication", in.partition->replication_factor());
  std::uint64_t source_sum = 0;
  for (graph::VertexId s : in.sources) source_sum = source_sum * 1000003u + s;
  exact.put("sources.hash", source_sum);

  // The stages alternate in segments, so each one samples the whole run
  // rather than one stretch of it.
  BatchStage batch(c, in, opt, report, exact);
  ServeStage serve(c, in.graph, *server, opt, report);
  if (opt.trace) {
    spare_setups(kSegments * c.setups_per_segment - 1);
    batch.run_traced();
    serve.run_for(a.seconds * (1.0 - c.batch_share));
  } else {
    const double segment = a.seconds / static_cast<double>(kSegments);
    for (std::size_t i = 0; i < kSegments; ++i) {
      spare_setups(c.setups_per_segment - (i == 0 ? 1 : 0));
      batch.run_for(segment * c.batch_share);
      serve.run_for(segment * (1.0 - c.batch_share));
    }
  }
  report.metric("setup_s", median(times.setup_s), "s");
  report.metric("graph.gen_s", median(times.gen_s), "s");
  report.metric("partition.build_s", median(times.part_s), "s");
  report.metric("serve.start_s", median(times.start_s), "s");
  batch.finish();
  serve.finish();
  if (opt.trace && report.value("obs.spans_dropped") > 0) {
    report.fail("the tracer dropped spans; the per-layer split is incomplete");
  }
  server->stop();
  server.reset();
  std::filesystem::remove_all(opt.checkpoint_dir);

  const std::string digest = code_digest();
  check_exact(exact, std::string(kWorkDir) + "/perfbench-exact/" + digest + "/" + tag + ".txt",
              report);
  report.context("code_digest", digest);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  char gen[160];
  if (c.web_crawl) {
    std::snprintf(gen, sizeof gen, "web_crawl_like(%d, %g, %u, %u)", c.scale, c.edge_factor,
                  c.tails, c.tail_len);
  } else {
    std::snprintf(gen, sizeof gen, "rmat(scale=%d, edge_factor=%g)", c.scale, c.edge_factor);
  }
  report.context("workload", c.name + (a.tiny ? " (tiny)" : ""));
  report.context("seed", std::to_string(a.seed));
  report.context("generator", gen);
  report.context("vertices", static_cast<double>(in.graph.num_vertices()));
  report.context("edges", static_cast<double>(in.graph.num_edges()));
  report.context("sources", static_cast<double>(in.sources.size()));
  report.context("hosts", static_cast<double>(c.hosts));
  report.context("pool_threads", static_cast<double>(kPoolThreads));
  report.context("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.context("setup_reps", static_cast<double>(times.setup_s.size()));
  report.context("trace", std::to_string(a.trace));

  std::vector<std::pair<std::string, std::string>> required;
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) required.emplace_back(m.name, m.unit);
  } else {
    for (const MetricDef& m : kEndToEnd) required.emplace_back(m.name, m.unit);
  }
  report.print(required);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny]\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::self_test();
  // A run that hangs must still end, without a result, inside the 180 s a
  // run is allowed: SIGALRM's default action terminates the process.
  alarm(170);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
