// Tests for the observability layer: span ring semantics, the histogram
// bucket layout and its quantile error bound on every export, concurrent
// recording, the Chrome trace-event / metrics JSON exporters, and — the
// load-bearing contract — reconciliation of the emitted spans and round
// log against the engines' RunStats aggregates, including fault-injected
// runs with crashes and rollback.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "baselines/mfbc.h"
#include "engine/cluster.h"
#include "engine/fault.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "obs/windowed.h"
#include "util/json.h"

namespace mrbc {
namespace {

using obs::Category;
using obs::Histogram;
using obs::SpanRecord;
using obs::Tracer;
using sim::BspLoop;
using sim::ClusterOptions;
using sim::HostWork;
using sim::RunStats;

// ---- Minimal JSON syntax checker -------------------------------------------
// Recursive-descent validator: enough to assert the exporters emit
// well-formed JSON without depending on an external parser.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Tests share the process-global tracer/metrics; this guard resets both
/// around each test that touches them.
struct ObsGuard {
  ObsGuard() {
    Tracer::global().disable();
    obs::Metrics::global().disable();
    obs::Metrics::global().clear();
  }
  ~ObsGuard() {
    Tracer::global().disable();
    obs::Metrics::global().disable();
    obs::Metrics::global().clear();
  }
};

// ---- Histogram --------------------------------------------------------------

TEST(Histogram, ValueBucketBoundsBracketTheirValues) {
  // 0..7 are exact buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v);
  }
  // Then 8 sub-buckets per octave: [8, 16) one value each, [16, 32) two.
  EXPECT_EQ(Histogram::bucket_index(15), 15u);
  EXPECT_EQ(Histogram::bucket_index(16), 16u);
  EXPECT_EQ(Histogram::bucket_index(17), 16u);
  EXPECT_EQ(Histogram::bucket_index(18), 17u);
  // Every log-linear bucket's bounds map back into it, and buckets tile
  // the value axis with no gaps: upper(i) + 1 == lower(i + 1).
  for (std::size_t i = 8; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i) << "lower of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i)), i) << "upper of bucket " << i;
    EXPECT_EQ(Histogram::bucket_upper(i - 1) + 1, Histogram::bucket_lower(i))
        << "gap before bucket " << i;
    if (i == Histogram::kNumBuckets - 1) continue;  // last bucket is the clamp catch-all
    // Sub-bucket width bounds relative quantile error at 1/8.
    const double width =
        static_cast<double>(Histogram::bucket_upper(i) - Histogram::bucket_lower(i) + 1);
    EXPECT_LE(width / static_cast<double>(Histogram::bucket_lower(i)), 0.1251) << "bucket " << i;
  }
  // Values beyond the last octave clamp into the top bucket instead of
  // indexing out of range.
  EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 30), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(Histogram, CountsSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.merged().count, 0u);
  EXPECT_EQ(h.merged().min, 0u);
  EXPECT_EQ(h.merged().max, 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  for (std::uint64_t v : {5u, 17u, 0u, 1024u, 3u}) h.record(v);
  const obs::HistWindow m = h.merged();
  EXPECT_EQ(m.count, 5u);
  EXPECT_EQ(m.sum, 5u + 17u + 0u + 1024u + 3u);
  EXPECT_EQ(m.min, 0u);
  EXPECT_EQ(m.max, 1024u);
  EXPECT_EQ(m.buckets[0], 1u);                          // the zero
  EXPECT_EQ(m.buckets[Histogram::bucket_index(5)], 1u);  // exact bucket
  EXPECT_EQ(m.buckets[Histogram::bucket_index(17)], 1u);  // [16, 17]
  h.clear();
  EXPECT_EQ(h.merged().count, 0u);
  EXPECT_EQ(h.merged().max, 0u);
}

TEST(Histogram, PercentilesBracketTrueValues) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  // Percentiles are clamped to the observed extremes...
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  // ...and interior queries land near the true values (50, 90).
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 64.0);
  const double p90 = h.percentile(90);
  EXPECT_GE(p90, 64.0);
  EXPECT_LE(p90, 100.0);
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
}

TEST(Histogram, ConstantStreamCollapsesAllPercentiles) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(42);
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 42.0) << "p" << p;
  }
}

/// Nearest-rank percentile of an exact stream, as HistWindow ranks it.
std::uint64_t exact_percentile(std::vector<std::uint64_t> values, double p) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = std::clamp<std::uint64_t>(static_cast<std::uint64_t>(p / 100.0 * n + 0.5), 1,
                                               values.size());
  return values[rank - 1];
}

/// Within the 12.5% sub-bucket width of the exact value, or within +1 in
/// the exact 0..7 buckets.
void expect_quantile_close(double got, std::uint64_t exact, const char* where, double p) {
  const double bound = exact < 8 ? 1.0 : 0.125 * static_cast<double>(exact);
  EXPECT_NEAR(got, static_cast<double>(exact), bound) << where << " p" << p;
}

TEST(Histogram, QuantileErrorBoundedOnEveryExport) {
  ObsGuard guard;
  obs::Metrics& m = obs::Metrics::global();
  m.enable();
  // 10×70, 80×100, 10×120: a log₂ layout puts 70 and 100 in one [64, 127]
  // bucket and reads p90 as 120.
  const std::vector<std::vector<std::uint64_t>> streams = {
      [] {
        std::vector<std::uint64_t> v(10, 70);
        v.insert(v.end(), 80, 100);
        v.insert(v.end(), 10, 120);
        return v;
      }(),
      {0, 1, 1, 2, 3, 3, 3, 5, 6, 7, 7, 7},
  };
  for (const std::vector<std::uint64_t>& stream : streams) {
    m.clear();
    Histogram h;
    obs::WindowedMetrics win(0, 1, /*ring_seconds=*/16);
    for (std::uint64_t v : stream) {
      h.record(v);
      win.record_value_at(0, v, /*now_s=*/10);
      m.histogram(obs::Hist::kServeRequestMicros).record(v);
    }
    const obs::HistWindow windowed = win.hist_window(0, 10, /*now_s=*/11);
    ASSERT_EQ(windowed.count, stream.size());
    const util::JsonValue exported =
        util::json_parse(m.json()).at("histograms").at("serve/request_us");
    static constexpr struct { double p; const char* key; } kQuantiles[] = {
        {50, "p50"}, {90, "p90"}, {99, "p99"}};
    for (const auto& q : kQuantiles) {
      const std::uint64_t exact = exact_percentile(stream, q.p);
      expect_quantile_close(h.percentile(q.p), exact, "Histogram::percentile", q.p);
      expect_quantile_close(windowed.percentile(q.p), exact, "hist_window().percentile", q.p);
      expect_quantile_close(exported.at(q.key).as_double(), exact, "Metrics::json", q.p);
    }
  }
}

TEST(Histogram, ConcurrentRecordingMergesExactly) {
  // Threads race on the sharded counters and the CAS min/max of one
  // Histogram, and on the first claim of two fresh WindowedMetrics slots.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  const auto value_of = [](std::size_t t, std::uint64_t i) { return (i * 7919 + t * 31) % 4099; };
  Histogram h;
  obs::WindowedMetrics win(1, 1, /*ring_seconds=*/8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t v = value_of(t, i);
        const std::int64_t second = 100 + static_cast<std::int64_t>(i % 2);
        h.record(v);
        win.record_value_at(0, v, second);
        win.add_counter_at(0, 1, second);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  obs::HistWindow want;
  want.min = UINT64_MAX;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const std::uint64_t v = value_of(t, i);
      ++want.count;
      want.sum += v;
      want.min = std::min(want.min, v);
      want.max = std::max(want.max, v);
      ++want.buckets[Histogram::bucket_index(v)];
    }
  }
  const obs::HistWindow got = h.merged();
  const obs::HistWindow windowed = win.hist_window(0, 4, /*now_s=*/102);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(windowed.count, want.count);
  EXPECT_EQ(windowed.sum, want.sum);
  EXPECT_EQ(win.counter_sum(0, 4, /*now_s=*/102), want.count);
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(got.buckets[b], want.buckets[b]) << "bucket " << b;
    EXPECT_EQ(windowed.buckets[b], want.buckets[b]) << "windowed bucket " << b;
  }
}

// ---- Tracer ring ------------------------------------------------------------

TEST(Tracer, RingWrapKeepsNewestOldestFirst) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    t.emit(Category::kOther, "tick", 0, i, static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.total_emitted(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const std::vector<SpanRecord> spans = t.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].round, 12u + i) << "oldest-first order after wrap";
  }
}

TEST(Tracer, SpanNestingAndContextPropagation) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(64);
  {
    obs::ScopedContext ctx(3, 7);
    obs::Span outer(Category::kAlgo, "outer");
    { obs::Span inner(Category::kComm, "inner"); }
  }
  const auto spans = t.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order commits the inner span first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.host, 3u);
    EXPECT_EQ(s.round, 7u);
    EXPECT_FALSE(s.modeled);
    EXPECT_GE(s.dur_us, 0.0);
  }
  // The outer span brackets the inner one.
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
}

TEST(Tracer, ScopedContextRestoresOnExit) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(64);
  {
    obs::ScopedContext outer_ctx(1, 2);
    { obs::ScopedContext inner_ctx(5, 6); }
    obs::Span s(Category::kOther, "after-inner");
  }
  const auto spans = t.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].host, 1u);
  EXPECT_EQ(spans[0].round, 2u);
}

TEST(Tracer, DisabledSitesEmitNothing) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(8);
  t.disable();
  { obs::Span s(Category::kOther, "ghost"); }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_emitted(), 0u);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(64);
  t.emit(Category::kComm, "comm", obs::kEngineHost, 1, 0.0, 5.0, /*modeled=*/true);
  t.emit(Category::kCompute, "host-compute", 2, 1, 1.0, 2.0);
  t.emit(Category::kAlgo, "forward \"quoted\"\\", 0, 3, 2.0, 1.0);
  const std::string json = t.chrome_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 3u);
  EXPECT_NE(json.find("\"host-compute\""), std::string::npos);
  // One metadata record per lane: engine + hosts 0 and 2.
  EXPECT_EQ(count_occurrences(json, "process_name"), 3u);
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
}

// ---- Metrics JSON -----------------------------------------------------------

TEST(Metrics, JsonSchemaAndNamedHistograms) {
  ObsGuard guard;
  obs::Metrics& m = obs::Metrics::global();
  m.enable();
  for (std::uint64_t v = 1; v <= 64; ++v) m.histogram(obs::Hist::kMessageBytes).record(v);
  m.histogram(obs::Hist::kServeRequestMicros).record(7);
  m.histogram(obs::Hist::kServeCoalescedBatches).record(3);
  const std::string json = m.json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"comm/message_bytes\""), std::string::npos);
  // The daemon's histograms keep their export names.
  EXPECT_NE(json.find("\"serve/request_us\""), std::string::npos);
  EXPECT_NE(json.find("\"serve/coalesced_batches\""), std::string::npos);
  for (const char* key : {"\"count\"", "\"sum\"", "\"min\"", "\"max\"", "\"mean\"", "\"p50\"",
                          "\"p90\"", "\"p99\"", "\"buckets\"", "\"le\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Untouched built-ins stay out of the export.
  EXPECT_EQ(json.find("\"comm/compression_pct\""), std::string::npos);
}

// ---- WindowedMetrics --------------------------------------------------------
// All rotation tests use the _at variants with explicit fake timestamps so
// rotation, idle gaps, clock steps, and ring wrap are driven deterministically.

TEST(WindowedMetrics, WindowExcludesCurrentPartialSecond) {
  obs::WindowedMetrics win(1, 0, /*ring_seconds=*/16);
  win.add_counter_at(0, 5, /*now_s=*/100);
  // Second 100 is still in progress at now=100: invisible.
  EXPECT_EQ(win.counter_sum(0, 10, /*now_s=*/100), 0u);
  // One tick later it is a complete second inside [91, 100].
  EXPECT_EQ(win.counter_sum(0, 10, /*now_s=*/101), 5u);
  // A 1s window at now=101 covers exactly second 100.
  EXPECT_EQ(win.counter_sum(0, 1, /*now_s=*/101), 5u);
  // Once the window slides past, the count ages out.
  EXPECT_EQ(win.counter_sum(0, 10, /*now_s=*/111), 0u);
}

TEST(WindowedMetrics, IdleGapLeavesStaleBucketsOutOfTheWindow) {
  obs::WindowedMetrics win(1, 0, /*ring_seconds=*/16);
  win.add_counter_at(0, 7, 100);
  // A long idle gap (no recordings, so no rotation happened): the slot
  // still holds second 100's stamp, and a read far in the future must not
  // resurrect it even though the slot index aliases (116 ≡ 100 mod 16).
  EXPECT_EQ(win.counter_sum(0, 10, /*now_s=*/500), 0u);
  // Writing after the gap recycles the slot rather than accumulating.
  win.add_counter_at(0, 3, 500);
  EXPECT_EQ(win.counter_sum(0, 10, 501), 3u);
}

TEST(WindowedMetrics, BackwardClockStepDropsTheSample) {
  obs::WindowedMetrics win(1, 0, /*ring_seconds=*/16);
  win.add_counter_at(0, 1, 200);
  // Slot for 200 is stamped; a recorder whose clock reads an older second
  // that aliases to the same slot (184 ≡ 200 mod 16) must drop, not smear
  // its delta into second 200.
  win.add_counter_at(0, 99, 184);
  EXPECT_EQ(win.counter_sum(0, 1, 201), 1u);
  // A mild step backward onto a *different* slot still records normally.
  win.add_counter_at(0, 4, 199);
  EXPECT_EQ(win.counter_sum(0, 10, 201), 5u);
}

TEST(WindowedMetrics, RingWrapRecyclesSlots) {
  obs::WindowedMetrics win(1, 0, /*ring_seconds=*/4);
  for (std::int64_t s = 0; s < 12; ++s) win.add_counter_at(0, 1, s);
  // Only the last 4 slots survive three full wraps; a 3s window at now=12
  // sees seconds 9..11.
  EXPECT_EQ(win.counter_sum(0, 3, 12), 3u);
  // Window wider than the ring is capped at ring-1 complete seconds (the
  // current second's slot can't be trusted to be complete).
  EXPECT_EQ(win.counter_sum(0, 300, 12), 3u);
}

TEST(WindowedMetrics, HistWindowMergesAndInterpolates) {
  obs::WindowedMetrics win(0, 1, /*ring_seconds=*/32);
  // 100 values 1..100 spread across two seconds.
  for (std::uint64_t v = 1; v <= 50; ++v) win.record_value_at(0, v, 10);
  for (std::uint64_t v = 51; v <= 100; ++v) win.record_value_at(0, v, 11);
  const auto w = win.hist_window(0, 10, /*now_s=*/12);
  EXPECT_EQ(w.count, 100u);
  EXPECT_EQ(w.sum, 5050u);
  EXPECT_DOUBLE_EQ(w.mean(), 50.5);
  // Log-linear interpolation keeps quantiles within the 12.5% sub-bucket
  // bound of the exact answers (50, 90, 99).
  EXPECT_NEAR(w.percentile(50), 50.0, 50.0 * 0.125 + 1.0);
  EXPECT_NEAR(w.percentile(90), 90.0, 90.0 * 0.125 + 1.0);
  EXPECT_NEAR(w.percentile(99), 99.0, 99.0 * 0.125 + 1.0);
  EXPECT_LE(w.percentile(50), w.percentile(90));
  EXPECT_LE(w.percentile(90), w.percentile(99));
  // Sliding the window past second 10 drops its half.
  const auto tail = win.hist_window(0, 10, /*now_s=*/21);
  EXPECT_EQ(tail.count, 50u);
}

TEST(WindowedMetrics, DisabledSitesRecordNothing) {
  obs::WindowedMetrics win(1, 1, /*ring_seconds=*/16);
  win.set_enabled(false);
  win.add_counter(0, 5);
  win.record_value(0, 42);
  win.set_enabled(true);
  EXPECT_EQ(win.counter_sum(0, 300), 0u);
  EXPECT_EQ(win.hist_window(0, 300).count, 0u);
}

// ---- Prometheus exposition --------------------------------------------------

TEST(Prometheus, GoldenRender) {
  obs::PromWriter w;
  w.type("up", "gauge", "Is the daemon up");
  w.sample("up", {}, std::uint64_t{1});
  w.type("mrbc_requests_total", "counter", "Requests served");
  w.sample("mrbc_requests_total", {{"endpoint", "/bc"}, {"code", "200"}}, std::uint64_t{17});
  const std::string expect =
      "# HELP up Is the daemon up\n"
      "# TYPE up gauge\n"
      "up 1\n"
      "# HELP mrbc_requests_total Requests served\n"
      "# TYPE mrbc_requests_total counter\n"
      "mrbc_requests_total{endpoint=\"/bc\",code=\"200\"} 17\n";
  EXPECT_EQ(w.str(), expect);
}

TEST(Prometheus, RenderParseRoundTrip) {
  obs::PromWriter w;
  w.type("latency_us", "histogram", "request latency");
  Histogram h;
  for (std::uint64_t v : {3u, 9u, 9u, 300u}) h.record(v);
  w.histogram("latency_us", {{"endpoint", "/bc"}}, h);
  w.type("qps", "gauge", "rate");
  w.sample("qps", {{"window", "10s"}}, 12345.5);
  w.type("weird", "gauge", "label escaping");
  w.sample("weird", {{"v", "a\\b\"c\nd"}}, 1.0);

  const auto samples = obs::prom_parse(w.str());
  // Histogram renders _bucket series + +Inf + _sum + _count.
  const auto* inf = obs::prom_find(samples, "latency_us_bucket", {{"le", "+Inf"}});
  ASSERT_NE(inf, nullptr);
  EXPECT_DOUBLE_EQ(inf->value, 4.0);
  const auto* sum = obs::prom_find(samples, "latency_us_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 321.0);
  const auto* count = obs::prom_find(samples, "latency_us_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 4.0);
  // Bucket counts are cumulative and monotone in le.
  double prev = 0;
  for (const auto& s : samples) {
    if (s.name != "latency_us_bucket") continue;
    EXPECT_GE(s.value, prev);
    prev = s.value;
  }
  const auto* qps = obs::prom_find(samples, "qps", {{"window", "10s"}});
  ASSERT_NE(qps, nullptr);
  EXPECT_DOUBLE_EQ(qps->value, 12345.5);
  // Escaped label value survives the round trip verbatim.
  const auto* weird = obs::prom_find(samples, "weird");
  ASSERT_NE(weird, nullptr);
  EXPECT_EQ(weird->labels.at("v"), "a\\b\"c\nd");
}

TEST(Prometheus, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(obs::prom_parse("up nan\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("up +Inf\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("1bad_name 1\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("up{label=unquoted} 1\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("up{label=\"open} 1\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("up\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("up notanumber\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("# FROB up gauge\n"), obs::PromParseError);
  EXPECT_THROW(obs::prom_parse("# TYPE up gauge\n# TYPE up gauge\nup 1\n"),
               obs::PromParseError);
  // And accepts the things it should.
  EXPECT_NO_THROW(obs::prom_parse("# HELP up ok\n# TYPE up gauge\nup 1\nup2 -3.5e2\n"));
}

// ---- BspLoop reconciliation -------------------------------------------------

struct CounterApp final : sim::Checkpointable {
  std::vector<std::uint64_t> counters;
  explicit CounterApp(std::size_t hosts) : counters(hosts, 0) {}
  void save_checkpoint(util::SendBuffer& buf) const override { buf.write_vector(counters); }
  void restore_checkpoint(util::RecvBuffer& buf) override {
    counters = buf.read_vector<std::uint64_t>();
  }
};

/// Runs a deterministic little BSP workload: `rounds` rounds at `hosts`
/// hosts with synthetic per-round traffic, optionally crashing once.
RunStats run_synthetic(std::size_t hosts, std::size_t rounds, sim::FaultInjector* fault,
                       sim::Checkpointable* app) {
  ClusterOptions opts;
  opts.record_round_log = true;
  opts.fault = fault;
  opts.checkpoint_interval = 2;
  BspLoop loop(static_cast<partition::HostId>(hosts), opts);
  return loop.run(
      [&](std::size_t round) {
        comm::SyncStats s;
        s.bytes_per_host.assign(hosts, 0);
        s.msgs_per_host.assign(hosts, 0);
        s.messages = hosts;
        s.bytes = 100 * round;
        s.values = 10 * round;
        for (std::size_t h = 0; h < hosts; ++h) {
          s.bytes_per_host[h] = 100 * round / hosts;
          s.msgs_per_host[h] = 1;
        }
        return s;
      },
      [&](partition::HostId h, std::size_t round) {
        if (app != nullptr) static_cast<CounterApp*>(app)->counters[h] += round;
        volatile double x = 1.0;
        for (int i = 0; i < 2000; ++i) x = x * 1.0000001 + 0.5;
        HostWork w;
        w.active = round < rounds;
        w.work_items = round * (h + 1);
        return w;
      },
      [] { return false; }, app);
}

TEST(ObsReconciliation, SpanSumsMatchRunStats) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(1 << 14);
  const std::size_t kRounds = 6;
  const RunStats stats = run_synthetic(3, kRounds, nullptr, nullptr);
  t.disable();

  double compute_span_sum = 0, comm_span_sum = 0;
  std::vector<std::uint32_t> comm_rounds, compute_rounds;
  for (const SpanRecord& s : t.snapshot()) {
    if (std::string(s.name) == "compute" && s.host == obs::kEngineHost) {
      compute_span_sum += s.dur_us * 1e-6;
      compute_rounds.push_back(s.round);
    } else if (std::string(s.name) == "comm") {
      EXPECT_TRUE(s.modeled);
      comm_span_sum += s.dur_us * 1e-6;
      comm_rounds.push_back(s.round);
    }
  }
  // One comm and one engine-lane compute span per executed BSP round.
  EXPECT_EQ(comm_rounds.size(), stats.rounds);
  EXPECT_EQ(compute_rounds.size(), stats.rounds);
  // Span durations reconcile with the aggregates (1e-9 relative: the
  // seconds -> microseconds -> seconds round trip costs a few ulp).
  EXPECT_NEAR(compute_span_sum, stats.compute_seconds, 1e-9 * stats.compute_seconds + 1e-12);
  EXPECT_NEAR(comm_span_sum, stats.network_seconds, 1e-9 * stats.network_seconds + 1e-12);
  // And with the phase breakdown.
  EXPECT_DOUBLE_EQ(stats.phases.compute_seconds, stats.compute_seconds);
  EXPECT_NEAR(stats.phases.comm_seconds + stats.phases.recovery_seconds +
                  stats.phases.checkpoint_seconds,
              stats.network_seconds, 1e-12);
}

TEST(ObsReconciliation, MfbcHostComputeSpansMatchRunStats) {
  // MFBC runs on BspLoop: its sweeps are the compute phase, so their
  // host-compute spans sum per host to the RunStats totals, and its modeled
  // comm spans — one per round, plus one per batch for the last backward
  // level's all-reduce — sum to network_seconds.
  ObsGuard guard;
  const graph::Graph g = graph::erdos_renyi(60, 0.08, 7);
  const auto sources = graph::sample_sources(g, 6, 1, /*contiguous=*/false);
  baselines::MfbcOptions opts;
  opts.num_hosts = 4;
  opts.replication = 2;  // 2 grid rows: each round all-reduces and broadcasts
  opts.batch_size = 3;
  opts.parallel_hosts = true;  // spans are emitted from pool threads
  Tracer& t = Tracer::global();
  t.enable(1 << 14);
  const baselines::MfbcRun run = baselines::mfbc_bc(g, sources, opts);
  t.disable();
  const RunStats stats = run.total();

  std::vector<double> span_sums(opts.num_hosts, 0.0);
  std::size_t spans = 0, comm_spans = 0;
  double compute_span_sum = 0, comm_span_sum = 0;
  for (const SpanRecord& s : t.snapshot()) {
    const std::string name(s.name);
    if (name == "host-compute") {
      ASSERT_LT(s.host, opts.num_hosts);
      EXPECT_FALSE(s.modeled);
      EXPECT_GE(s.round, 1u) << "tagged with its round";
      span_sums[s.host] += s.dur_us * 1e-6;
      ++spans;
    } else if (name == "compute" && s.host == obs::kEngineHost) {
      compute_span_sum += s.dur_us * 1e-6;
    } else if (name == "comm") {
      EXPECT_TRUE(s.modeled);
      comm_span_sum += s.dur_us * 1e-6;
      ++comm_spans;
    }
  }
  ASSERT_GT(run.forward.rounds, 0u);
  ASSERT_GT(run.backward.rounds, 0u);
  // Every round: one sweep per host.
  EXPECT_EQ(spans, stats.rounds * opts.num_hosts);
  ASSERT_EQ(stats.per_host_compute_seconds.size(), opts.num_hosts);
  for (std::uint32_t h = 0; h < opts.num_hosts; ++h) {
    const double want = stats.per_host_compute_seconds[h];
    EXPECT_NEAR(span_sums[h], want, 1e-9 * want + 1e-12) << "host " << h;
  }
  const std::size_t batches = (sources.size() + opts.batch_size - 1) / opts.batch_size;
  EXPECT_EQ(comm_spans, stats.rounds + batches);
  EXPECT_NEAR(compute_span_sum, stats.compute_seconds, 1e-9 * stats.compute_seconds + 1e-12);
  EXPECT_NEAR(comm_span_sum, stats.network_seconds, 1e-9 * stats.network_seconds + 1e-12);
  // And with the phase breakdown.
  EXPECT_DOUBLE_EQ(stats.phases.compute_seconds, stats.compute_seconds);
  EXPECT_GT(stats.phases.comm_seconds, 0.0);
  EXPECT_NEAR(stats.phases.comm_seconds + stats.phases.recovery_seconds +
                  stats.phases.checkpoint_seconds,
              stats.network_seconds, 1e-12);
}

TEST(ObsReconciliation, FaultInjectedRunReconcilesSpansAndPhases) {
  ObsGuard guard;
  Tracer& t = Tracer::global();
  t.enable(1 << 14);
  sim::FaultPlan plan;
  plan.events.push_back({sim::FaultKind::kCrash, 5, 1});
  sim::FaultInjector injector(plan, 3);
  CounterApp app(3);
  const RunStats stats = run_synthetic(3, 7, &injector, &app);
  t.disable();

  EXPECT_EQ(stats.faults.crashes, 1u);
  double compute_span_sum = 0, comm_span_sum = 0, checkpoint_span_sum = 0;
  std::size_t rollbacks = 0;
  for (const SpanRecord& s : t.snapshot()) {
    const std::string name(s.name);
    if (name == "compute" && s.host == obs::kEngineHost) compute_span_sum += s.dur_us * 1e-6;
    if (name == "comm") comm_span_sum += s.dur_us * 1e-6;
    if (name == "checkpoint") checkpoint_span_sum += s.dur_us * 1e-6;
    if (name == "rollback") ++rollbacks;
  }
  EXPECT_EQ(rollbacks, 1u);
  EXPECT_NEAR(compute_span_sum, stats.compute_seconds, 1e-9 * stats.compute_seconds + 1e-12);
  // comm + checkpoint spans carry every modeled second of the run.
  EXPECT_NEAR(comm_span_sum + checkpoint_span_sum, stats.network_seconds,
              1e-9 * stats.network_seconds + 1e-12);
  EXPECT_NEAR(checkpoint_span_sum, stats.faults.checkpoint_seconds,
              1e-9 * stats.faults.checkpoint_seconds + 1e-12);
  EXPECT_DOUBLE_EQ(stats.phases.compute_seconds, stats.compute_seconds);
  EXPECT_NEAR(stats.phases.total() - stats.phases.compute_seconds, stats.network_seconds, 1e-12);
}

TEST(ObsReconciliation, DisabledInstrumentationLeavesCountsIdentical) {
  ObsGuard guard;
  const std::size_t kRounds = 5;
  const RunStats off = run_synthetic(4, kRounds, nullptr, nullptr);

  Tracer::global().enable(1 << 12);
  obs::Metrics::global().enable();
  const RunStats on = run_synthetic(4, kRounds, nullptr, nullptr);
  Tracer::global().disable();
  obs::Metrics::global().disable();

  // Tracing must be free of observable effects on the simulation: every
  // integer aggregate and the whole round log match exactly.
  EXPECT_EQ(off.rounds, on.rounds);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.bytes, on.bytes);
  EXPECT_EQ(off.values, on.values);
  ASSERT_EQ(off.round_log.size(), on.round_log.size());
  for (std::size_t i = 0; i < off.round_log.size(); ++i) {
    EXPECT_EQ(off.round_log[i].round, on.round_log[i].round);
    EXPECT_EQ(off.round_log[i].messages, on.round_log[i].messages);
    EXPECT_EQ(off.round_log[i].bytes, on.round_log[i].bytes);
    EXPECT_EQ(off.round_log[i].work_items, on.round_log[i].work_items);
    EXPECT_DOUBLE_EQ(off.round_log[i].network_seconds, on.round_log[i].network_seconds);
  }
  EXPECT_DOUBLE_EQ(off.network_seconds, on.network_seconds);
}

TEST(ObsReconciliation, SpanDurationsFeedSpanMicrosHistogram) {
  ObsGuard guard;
  Tracer::global().enable(64);
  obs::Metrics::global().enable();
  { obs::Span s(Category::kAlgo, "timed"); }
  { obs::Span s(Category::kAlgo, "timed"); }
  EXPECT_EQ(obs::Metrics::global().histogram(obs::Hist::kSpanMicros).merged().count, 2u);
}

}  // namespace
}  // namespace mrbc
