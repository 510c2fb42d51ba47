// Observability overhead budget, enforced:
//   1. a *disabled* span site costs < 2 ns (one relaxed atomic load and a
//      predictable branch — cheap enough to leave compiled into every hot
//      path unconditionally);
//   2. a *disabled* WindowedMetrics counter site fits the same < 2 ns
//      budget (the serve layer's --no-telemetry guarantee: recording sites
//      stay compiled in, disabled cost is one relaxed load + branch);
//   3. enabling tracing + metrics costs < 5% wall time on a reference MRBC
//      run: the median of kPairs per-pair on/off ratios, alternating which
//      side runs first so drift in the machine's speed hits both alike (a
//      min-of-3 on each side flipped between pass and fail on back-to-back
//      runs).
// Exits nonzero if any budget is blown, and writes micro_obs.csv.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/mrbc.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/windowed.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/timer.h"

namespace mrbc::bench {
namespace {

constexpr int kPairs = 15;

/// ns per disabled span site, averaged over `iters` constructions.
double disabled_span_ns(std::size_t iters) {
  obs::Tracer::global().disable();
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    obs::Span span(obs::Category::kOther, "probe");
  }
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

/// ns per enabled span (clock read + ring slot claim at open and close).
double enabled_span_ns(std::size_t iters) {
  obs::Tracer::global().enable(std::size_t{1} << 16);
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    obs::Span span(obs::Category::kOther, "probe");
  }
  const double ns = timer.seconds() * 1e9 / static_cast<double>(iters);
  obs::Tracer::global().disable();
  return ns;
}

/// ns per disabled WindowedMetrics counter site (--no-telemetry cost).
double disabled_windowed_ns(std::size_t iters) {
  obs::WindowedMetrics win(4, 1, /*ring_seconds=*/16);
  win.set_enabled(false);
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    win.add_counter(0);
  }
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

/// ns per enabled windowed counter add (clock read + slot claim + fetch_add).
double enabled_windowed_ns(std::size_t iters) {
  obs::WindowedMetrics win(4, 1, /*ring_seconds=*/16);
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    win.add_counter(0);
  }
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

double reference_mrbc_seconds() {
  static graph::Graph g = graph::rmat({.scale = 9, .edge_factor = 8.0, .seed = 42});
  static std::vector<graph::VertexId> sources = graph::sample_sources(g, 24, 7);
  core::MrbcOptions opts;
  opts.num_hosts = 4;
  opts.batch_size = 12;
  util::Timer timer;
  auto run = core::mrbc_bc(g, sources, opts);
  const double seconds = timer.seconds();
  if (run.result.bc.empty()) std::exit(1);  // keep the run observable
  return seconds;
}

/// The reference run with tracing + metrics on or off.
double reference_seconds(bool traced) {
  if (traced) {
    obs::Tracer::global().enable(std::size_t{1} << 18);
    obs::Metrics::global().enable();
  }
  const double seconds = reference_mrbc_seconds();
  obs::Tracer::global().disable();
  obs::Metrics::global().disable();
  return seconds;
}

int run() {
  int failures = 0;

  const double off_ns = disabled_span_ns(200'000'000);
  std::printf("disabled span site: %.3f ns (budget 2.0)\n", off_ns);
  if (off_ns >= 2.0) {
    std::printf("FAIL: disabled span site exceeds 2 ns\n");
    ++failures;
  }

  const double on_ns = enabled_span_ns(10'000'000);
  std::printf("enabled span:       %.1f ns\n", on_ns);

  const double win_off_ns = disabled_windowed_ns(200'000'000);
  std::printf("disabled windowed:  %.3f ns (budget 2.0)\n", win_off_ns);
  if (win_off_ns >= 2.0) {
    std::printf("FAIL: disabled windowed-counter site exceeds 2 ns\n");
    ++failures;
  }
  const double win_on_ns = enabled_windowed_ns(20'000'000);
  std::printf("enabled windowed:   %.1f ns\n", win_on_ns);

  // Warm caches once, then kPairs off/on pairs.
  reference_mrbc_seconds();
  std::vector<double> off_s, on_s, ratios;
  for (int i = 0; i < kPairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = reference_seconds(on_first);
    const double second = reference_seconds(!on_first);
    off_s.push_back(on_first ? second : first);
    on_s.push_back(on_first ? first : second);
    ratios.push_back(on_s.back() / off_s.back());
  }
  const double base_s = util::quantile(off_s, 0.5);
  const double traced_s = util::quantile(on_s, 0.5);
  const double overhead_pct = (util::quantile(ratios, 0.5) - 1.0) * 100.0;
  std::printf("reference mrbc:     %.4fs off, %.4fs on (medians of %d pairs; median ratio "
              "%+.2f%% [%+.2f%%, %+.2f%%], budget +5%%)\n",
              base_s, traced_s, kPairs, overhead_pct,
              (util::quantile(ratios, 0.25) - 1.0) * 100.0,
              (util::quantile(ratios, 0.75) - 1.0) * 100.0);
  if (overhead_pct >= 5.0) {
    std::printf("FAIL: enabled tracing overhead exceeds 5%%\n");
    ++failures;
  }

  util::CsvWriter csv("micro_obs.csv",
                      {"metric", "value", "unit", "budget"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", off_ns);
  csv.add_row({"disabled_span_site", buf, "ns", "2.0"});
  std::snprintf(buf, sizeof(buf), "%.1f", on_ns);
  csv.add_row({"enabled_span", buf, "ns", ""});
  std::snprintf(buf, sizeof(buf), "%.4f", win_off_ns);
  csv.add_row({"disabled_windowed_site", buf, "ns", "2.0"});
  std::snprintf(buf, sizeof(buf), "%.1f", win_on_ns);
  csv.add_row({"enabled_windowed_add", buf, "ns", ""});
  std::snprintf(buf, sizeof(buf), "%.4f", base_s);
  csv.add_row({"mrbc_reference", buf, "s", ""});
  std::snprintf(buf, sizeof(buf), "%.4f", traced_s);
  csv.add_row({"mrbc_traced", buf, "s", ""});
  std::snprintf(buf, sizeof(buf), "%.2f", overhead_pct);
  csv.add_row({"tracing_overhead", buf, "%", "5.0"});
  std::printf("wrote micro_obs.csv\n");
  return failures;
}

}  // namespace
}  // namespace mrbc::bench

int main() { return mrbc::bench::run(); }
