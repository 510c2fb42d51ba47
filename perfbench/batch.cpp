// Batch stage: the four BC engines and the durable MRBC run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "baselines/brandes_seq.h"
#include "baselines/mfbc.h"
#include "baselines/sbbc.h"
#include "baselines/weighted_bc.h"
#include "core/mrbc.h"
#include "ledger.h"
#include "stages.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = mrbc::core;
namespace baselines = mrbc::baselines;
namespace sim = mrbc::sim;
using Clock = std::chrono::steady_clock;

void Exact::put(const std::string& key, std::uint64_t v) { values_[key] = std::to_string(v); }

void Exact::put(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);  // bit-exact
  values_[key] = buf;
}

void Exact::absorb(const Exact& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::string Exact::first_difference(const std::map<std::string, std::string>& a,
                                    const std::map<std::string, std::string>& b) {
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second != v) return k;
  }
  return "";
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

sim::ClusterOptions cluster_options(std::size_t threads, bool round_log) {
  sim::ClusterOptions o;
  o.codec = mrbc::comm::CodecMode::kFull;
  o.threads = threads;
  o.parallel_hosts = threads > 1;
  o.record_round_log = round_log;
  return o;
}

core::MrbcOptions mrbc_options(const Config& c, std::size_t threads, bool round_log) {
  core::MrbcOptions o;
  o.num_hosts = c.hosts;
  o.batch_size = c.batch_size;
  o.cluster = cluster_options(threads, round_log);
  return o;
}

/// One repetition's results and wall times.
struct Rep {
  core::MrbcRun mrbc;
  baselines::SbbcRun sbbc;
  baselines::MfbcRun mfbc;
  baselines::MfbcWeightedRun wmfbc;
  core::MrbcRun durable;
  double mrbc_s = 0, sbbc_s = 0, mfbc_s = 0, wmfbc_s = 0, durable_s = 0;
};

/// Traces of the traced repetition's calls.
struct RepTraces {
  CallTrace mrbc, sbbc, mfbc, wmfbc, durable;
};

/// Times fn() with the steady clock, or through the ledger when tracing.
double timed(Ledger* ledger, const char* name, CallTrace* trace, const std::function<void()>& fn) {
  if (ledger != nullptr) {
    *trace = ledger->record(name, fn);
    return trace->wall_s;
  }
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

std::vector<mrbc::graph::VertexId> durable_sources(const Config& c, const Inputs& in) {
  const std::size_t k = std::min<std::size_t>(c.durable_sources, in.sources.size());
  return {in.sources.begin(), in.sources.begin() + static_cast<std::ptrdiff_t>(k)};
}

void run_rep(const Config& c, const Inputs& in, const RunOptions& opt, Ledger* ledger, Rep& rep,
             RepTraces& traces) {
  const bool round_log = ledger != nullptr;
  const core::MrbcOptions mopts = mrbc_options(c, kPoolThreads, round_log);
  rep.mrbc_s = timed(ledger, "perfbench/mrbc_bc", &traces.mrbc,
                     [&] { rep.mrbc = core::mrbc_bc(*in.partition, in.sources, mopts); });

  baselines::SbbcOptions sopts;
  sopts.num_hosts = c.hosts;
  sopts.cluster = cluster_options(kPoolThreads, round_log);
  rep.sbbc_s = timed(ledger, "perfbench/sbbc_bc", &traces.sbbc,
                     [&] { rep.sbbc = baselines::sbbc_bc(*in.partition, in.sources, sopts); });

  baselines::MfbcOptions fopts;
  fopts.num_hosts = c.hosts;
  fopts.batch_size = c.mfbc_batch_size;
  fopts.replication = kReplication;
  fopts.codec = mrbc::comm::CodecMode::kFull;
  fopts.parallel_hosts = kPoolThreads > 1;
  rep.mfbc_s = timed(ledger, "perfbench/mfbc_bc", &traces.mfbc,
                     [&] { rep.mfbc = baselines::mfbc_bc(in.graph, in.sources, fopts); });

  baselines::MfbcWeightedOptions wopts;
  wopts.num_hosts = c.hosts;
  wopts.batch_size = c.mfbc_batch_size;
  rep.wmfbc_s = timed(ledger, "perfbench/mfbc_weighted_bc", &traces.wmfbc, [&] {
    rep.wmfbc = baselines::mfbc_weighted_bc(in.weighted, in.sources, wopts);
  });

  core::MrbcOptions dopts = mopts;
  dopts.checkpoint_dir = opt.checkpoint_dir;
  dopts.cluster.checkpoint_interval = c.durable_interval;
  const auto dsources = durable_sources(c, in);
  fresh_dir(opt.checkpoint_dir);
  rep.durable_s = timed(ledger, "perfbench/mrbc_bc_durable", &traces.durable,
                        [&] { rep.durable = core::mrbc_bc(*in.partition, dsources, dopts); });
}

void put_stats(Exact& e, const std::string& p, const sim::RunStats& s) {
  e.put(p + ".rounds", std::uint64_t{s.rounds});
  e.put(p + ".messages", std::uint64_t{s.messages});
  e.put(p + ".bytes", std::uint64_t{s.bytes});
  e.put(p + ".raw_bytes", std::uint64_t{s.raw_bytes});
  e.put(p + ".values", std::uint64_t{s.values});
  e.put(p + ".network_seconds", s.network_seconds);
  e.put(p + ".imbalance_sum", s.imbalance_sum);
}

Exact exact_of(const Rep& rep) {
  Exact e;
  put_stats(e, "mrbc", rep.mrbc.total());
  e.put("mrbc.pull_rounds", std::uint64_t{rep.mrbc.forward_pull_rounds});
  put_stats(e, "sbbc", rep.sbbc.total());
  e.put("sbbc.pull_rounds", std::uint64_t{rep.sbbc.forward_pull_rounds});
  put_stats(e, "mfbc", rep.mfbc.total());
  put_stats(e, "wmfbc", rep.wmfbc.total());
  const sim::RunStats d = rep.durable.total();
  put_stats(e, "mrbc_durable", d);
  e.put("mrbc_durable.checkpoints", std::uint64_t{d.faults.checkpoints});
  e.put("mrbc_durable.checkpoint_bytes", std::uint64_t{d.faults.checkpoint_bytes});
  return e;
}

double host_compute(const sim::RunStats& s) {
  double sum = 0;
  for (double h : s.per_host_compute_seconds) sum += h;
  return sum;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void check_scores(Report& report, const std::vector<double>& got, const std::vector<double>& want,
                  const std::string& what) {
  const std::size_t bad = score_mismatches(got, want, kScoreTolerance);
  report.check(bad == 0, what + " (" + std::to_string(bad) + " of " +
                             std::to_string(want.size()) + " scores off)");
}

/// `scores` are the score vectors of one repetition, in Rep's call order;
/// every later repetition was checked equal to them bit for bit.
void check_rep(const Config& c, const Inputs& in, const std::vector<std::vector<double>>& scores,
               Report& report) {
  const core::BcResult ref = baselines::brandes_bc_sources(in.graph, in.sources);
  check_scores(report, scores[0], ref.bc, "mrbc_bc vs brandes_bc_sources");
  check_scores(report, scores[1], ref.bc, "sbbc_bc vs brandes_bc_sources");
  check_scores(report, scores[2], ref.bc, "mfbc_bc vs brandes_bc_sources");
  const baselines::WeightedBcResult wref = baselines::brandes_weighted_bc(in.weighted, in.sources);
  check_scores(report, scores[3], wref.bc, "mfbc_weighted_bc vs brandes_weighted_bc");
  const core::BcResult dref = baselines::brandes_bc_sources(in.graph, durable_sources(c, in));
  check_scores(report, scores[4], dref.bc, "durable mrbc_bc vs brandes_bc_sources");
}

void layer_metrics(const Config& c, const Inputs& in, const Rep& traced, const RepTraces& tr,
                   const Rep& untraced, Report& report) {
  const sim::RunStats m = traced.mrbc.total();
  const sim::RunStats s = traced.sbbc.total();
  const sim::RunStats f = traced.mfbc.total();
  const sim::RunStats w = traced.wmfbc.total();

  report.metric("partition.replication", in.partition->replication_factor(), "ratio");

  const double mrbc_host = host_compute(m);
  std::uint64_t items = 0;
  for (const sim::RoundLogEntry& r : m.round_log) items += r.work_items;
  report.metric("core.mrbc.host_compute_s", mrbc_host, "s");
  report.metric("core.mrbc.critical_compute_s", m.compute_seconds, "s");
  report.metric("core.mrbc.work_items", static_cast<double>(items), "count");
  report.metric("core.mrbc.ns_per_item", ratio(mrbc_host * 1e9, static_cast<double>(items)), "ns");
  report.metric("core.mrbc.rounds", static_cast<double>(m.rounds), "count");
  report.metric("core.mrbc.pull_rounds", static_cast<double>(traced.mrbc.forward_pull_rounds),
                "count");
  report.metric("core.mrbc.imbalance", m.mean_imbalance(), "ratio");

  report.metric("baselines.sbbc.host_compute_s", host_compute(s), "s");
  report.metric("baselines.sbbc.rounds", static_cast<double>(s.rounds), "count");
  report.metric("baselines.wmfbc.rounds", static_cast<double>(w.rounds), "count");
  report.metric("baselines.wmfbc.bytes", static_cast<double>(w.bytes), "bytes");
  report.metric("matrix.mfbc.host_compute_s", host_compute(f), "s");
  report.metric("matrix.mfbc.iterations", static_cast<double>(f.rounds), "count");

  const struct {
    const char* engine;
    const sim::RunStats& stats;
    const CallTrace& trace;
  } engines[] = {{"mrbc", m, tr.mrbc}, {"sbbc", s, tr.sbbc}, {"mfbc", f, tr.mfbc}};
  for (const auto& e : engines) {
    const std::string p = std::string("comm.") + e.engine;
    report.metric(p + ".messages", static_cast<double>(e.stats.messages), "count");
    report.metric(p + ".bytes", static_cast<double>(e.stats.bytes), "bytes");
    report.metric(p + ".codec_ratio",
                  ratio(static_cast<double>(e.stats.raw_bytes), static_cast<double>(e.stats.bytes)),
                  "ratio");
    report.metric(p + ".sync_s", e.trace.sum_seconds({"reduce", "broadcast", "scatter"}), "s");
    const double attributed =
        e.trace.covered_seconds({"host-compute", "reduce", "broadcast", "scatter"});
    report.metric(std::string("engine.") + e.engine + ".unattributed_s",
                  e.trace.wall_s - attributed, "s");
  }
  report.metric("engine.mrbc.round_overhead_us",
                ratio((tr.mrbc.wall_s - tr.mrbc.covered_seconds({"host-compute"})) * 1e6,
                      static_cast<double>(m.rounds)),
                "us");
  report.metric("engine.sbbc.round_overhead_us",
                ratio((tr.sbbc.wall_s - tr.sbbc.covered_seconds({"host-compute"})) * 1e6,
                      static_cast<double>(s.rounds)),
                "us");

  const sim::RunStats d = traced.durable.total();
  report.metric("engine.mrbc_durable.checkpoints", static_cast<double>(d.faults.checkpoints),
                "count");
  report.metric("engine.mrbc_durable.checkpoint_mb",
                static_cast<double>(d.faults.checkpoint_bytes) / 1e6, "MB");

  // The same sources in memory, untraced, against the untraced durable run.
  const auto dsources = durable_sources(c, in);
  const core::MrbcOptions mopts = mrbc_options(c, kPoolThreads, false);
  Clock::time_point t0 = Clock::now();
  const core::MrbcRun in_memory = core::mrbc_bc(*in.partition, dsources, mopts);
  const double in_memory_s = seconds_since(t0);
  report.metric("engine.mrbc_durable.overhead_s", untraced.durable_s - in_memory_s, "s");
  report.check(in_memory.result.bc == traced.durable.result.bc,
               "durable and in-memory mrbc_bc scores identical");

  // Thread-pool speedup of MRBC over the full source set: one thread
  // against kSpeedupThreads.
  std::vector<double> wall;
  std::vector<std::vector<double>> scores;
  for (const std::size_t threads : {std::size_t{1}, kSpeedupThreads}) {
    mrbc::util::ThreadPool::set_global_threads(threads);
    t0 = Clock::now();
    scores.push_back(core::mrbc_bc(*in.partition, in.sources,
                                   mrbc_options(c, threads, false)).result.bc);
    wall.push_back(seconds_since(t0));
  }
  mrbc::util::ThreadPool::set_global_threads(kPoolThreads);
  report.metric("util.mrbc_speedup", ratio(wall[0], wall[1]), "ratio");
  report.check(scores[0] == scores[1] && scores[0] == untraced.mrbc.result.bc,
               "mrbc_bc scores identical across pool widths");

  const double untraced_s = untraced.mrbc_s + untraced.sbbc_s + untraced.mfbc_s + untraced.wmfbc_s;
  const double traced_s = traced.mrbc_s + traced.sbbc_s + traced.mfbc_s + traced.wmfbc_s;
  report.metric("obs.trace_overhead_pct", ratio(traced_s - untraced_s, untraced_s) * 100.0,
                "%");
}

}  // namespace

struct BatchStage::State {
  State(const Config& c_, const Inputs& in_, const RunOptions& opt_, Report& report_,
        Exact& exact_)
      : c(c_), in(in_), opt(opt_), report(report_), exact(exact_) {}

  const Config& c;
  const Inputs& in;
  const RunOptions& opt;
  Report& report;
  Exact& exact;
  Rep rep;
  RepTraces traces;
  bool first = true;
  std::vector<double> mrbc_s, sbbc_s, mfbc_s, wmfbc_s, durable_s;
  /// The first repetition's score vectors, one per engine call; finish()
  /// checks them against the references.
  std::vector<std::vector<double>> first_scores;

  static std::vector<std::vector<double>> scores_of(const Rep& r) {
    return {r.mrbc.result.bc, r.sbbc.result.bc, r.mfbc.result.bc, r.wmfbc.result.bc,
            r.durable.result.bc};
  }

  /// Records a repetition's wall times, and checks its scores (bit for
  /// bit: the engines are deterministic) and exact values against the
  /// first repetition's.
  void keep(const Rep& r) {
    mrbc_s.push_back(r.mrbc_s);
    sbbc_s.push_back(r.sbbc_s);
    mfbc_s.push_back(r.mfbc_s);
    wmfbc_s.push_back(r.wmfbc_s);
    durable_s.push_back(r.durable_s);
    report.check(r.mrbc.anomalies == 0 && r.durable.anomalies == 0 && !r.durable.halted,
                 "mrbc pipelining anomalies / halted durable run");
    std::vector<std::vector<double>> scores = scores_of(r);
    const Exact e = exact_of(r);
    if (first) {
      report.ops(scores.size(), 0);
      first_scores = std::move(scores);
      exact.absorb(e);
      first = false;
      return;
    }
    std::uint64_t drifted = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) drifted += scores[i] != first_scores[i];
    report.ops(scores.size(), drifted);
    if (drifted != 0) report.fail("scores drifted between repetitions");
    const std::string diff = Exact::first_difference(e.values(), exact.values());
    if (!diff.empty()) report.fail("exact value " + diff + " drifted between repetitions");
  }
};

BatchStage::BatchStage(const Config& c, const Inputs& in, const RunOptions& opt, Report& report,
                       Exact& exact)
    : s_(std::make_unique<State>(c, in, opt, report, exact)) {}

BatchStage::~BatchStage() = default;

void BatchStage::run_for(double seconds) {
  State& s = *s_;
  // Stops before a repetition that would overrun the segment (judged by
  // the previous one), so the run keeps to --seconds.
  const Clock::time_point t0 = Clock::now();
  double last = 0;
  do {
    const Clock::time_point r0 = Clock::now();
    run_rep(s.c, s.in, s.opt, nullptr, s.rep, s.traces);
    s.keep(s.rep);
    last = seconds_since(r0);
  } while (seconds_since(t0) + last <= seconds);
}

void BatchStage::run_traced() {
  State& s = *s_;
  run_rep(s.c, s.in, s.opt, nullptr, s.rep, s.traces);
  s.keep(s.rep);
  Rep traced;
  {
    Ledger ledger(std::size_t{1} << 21);
    run_rep(s.c, s.in, s.opt, &ledger, traced, s.traces);
    s.report.add("obs.spans_dropped", static_cast<double>(ledger.dropped()), "count");
  }
  s.keep(traced);
  layer_metrics(s.c, s.in, traced, s.traces, s.rep, s.report);
}

void BatchStage::finish() {
  State& s = *s_;
  check_rep(s.c, s.in, s.first_scores, s.report);

  // Medians over the repetitions, which the alternating segments spread
  // over the whole run.
  s.report.metric("mrbc_s", median(s.mrbc_s), "s");
  s.report.metric("sbbc_s", median(s.sbbc_s), "s");
  s.report.metric("mfbc_s", median(s.mfbc_s), "s");
  s.report.metric("wmfbc_s", median(s.wmfbc_s), "s");
  s.report.metric("mrbc_durable_s", median(s.durable_s), "s");
  s.report.metric("mrbc_net_s", s.rep.mrbc.total().network_seconds, "s_modeled");
  s.report.metric("sbbc_net_s", s.rep.sbbc.total().network_seconds, "s_modeled");
  s.report.metric("mfbc_net_s", s.rep.mfbc.total().network_seconds, "s_modeled");
  s.report.context("batch_reps", static_cast<double>(s.mrbc_s.size()));
  s.report.context("checkpoint_dir", s.opt.checkpoint_dir);
}

}  // namespace perfbench
