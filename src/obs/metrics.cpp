#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>

#include "util/json.h"

namespace mrbc::obs {

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kMessageBytes: return "comm/message_bytes";
    case Hist::kRoundBytes: return "engine/round_bytes";
    case Hist::kRoundMessages: return "engine/round_messages";
    case Hist::kRoundWorkItems: return "engine/round_work_items";
    case Hist::kRetransmitAttempts: return "comm/delivery_attempts";
    case Hist::kSpanMicros: return "obs/span_micros";
    case Hist::kCompressionPct: return "comm/compression_pct";
    case Hist::kServeCoalescedBatches: return "serve/coalesced_batches";
    case Hist::kServeRequestMicros: return "serve/request_us";
    case Hist::kCount: break;
  }
  return "?";
}

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const std::size_t octave = static_cast<std::size_t>(std::bit_width(value)) - 1;
  if (octave > kMaxOctave) return kNumBuckets - 1;
  const std::size_t sub = static_cast<std::size_t>(value >> (octave - 3)) - kSubBuckets;
  return kSubBuckets + (octave - 3) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t i) {
  if (i < kSubBuckets) return i;
  const std::size_t octave = 3 + (i - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (i - kSubBuckets) % kSubBuckets;
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (octave - 3);
}

std::uint64_t Histogram::bucket_upper(std::size_t i) {
  if (i < kSubBuckets) return i;
  if (i >= kNumBuckets - 1) return UINT64_MAX;
  const std::size_t octave = 3 + (i - kSubBuckets) / kSubBuckets;
  return bucket_lower(i) + ((std::uint64_t{1} << (octave - 3)) - 1);
}

namespace {
/// Round-robin per-thread shard assignment: consecutive recording threads
/// land on consecutive shards, so a pool of <= kNumShards workers never
/// shares a counter line.
std::size_t my_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine & (Histogram::kNumShards - 1);
}
}  // namespace

void Histogram::record(std::uint64_t value) {
  Shard& s = shards_[my_shard()];
  s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (value < cur && !s.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (value > cur && !s.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

HistWindow Histogram::merged() const {
  HistWindow out;
  std::uint64_t lo = UINT64_MAX;
  for (const Shard& s : shards_) {
    const std::uint64_t n = s.count.load(std::memory_order_relaxed);
    if (n == 0) continue;  // a shard no thread has recorded into
    out.count += n;
    out.sum += s.sum.load(std::memory_order_relaxed);
    lo = std::min(lo, s.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  out.min = lo == UINT64_MAX ? 0 : lo;
  return out;
}

double Histogram::percentile(double p) const { return merged().percentile(p); }

void Histogram::clear() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

double HistWindow::percentile(double p) const {
  // Ranks count the buckets, not `count`: a merge taken while recorders
  // run can see a sample in one and not yet in the other.
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank target in [1, n].
  std::uint64_t target = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(n) + 0.5);
  target = std::clamp<std::uint64_t>(target, 1, n);
  std::uint64_t cum = 0;
  std::size_t i = 0;
  while (cum + buckets[i] < target) cum += buckets[i++];
  const double lo = static_cast<double>(Histogram::bucket_lower(i));
  const double hi = static_cast<double>(Histogram::bucket_upper(i));
  const double frac = static_cast<double>(target - cum) / static_cast<double>(buckets[i]);
  // Bucket bounds can be wider than what was actually observed. (min/max,
  // not std::clamp: a racing merge may read min above max.)
  return std::min(std::max(lo + (hi - lo) * frac, static_cast<double>(min)),
                  static_cast<double>(max));
}

Metrics& Metrics::global() {
  static Metrics metrics;
  return metrics;
}

void Metrics::clear() {
  for (auto& h : builtin_) h.clear();
}

std::string Metrics::json() const {
  util::JsonWriter w;
  w.begin_object().key("histograms").begin_object();
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const HistWindow h = builtin_[i].merged();
    if (h.count == 0) continue;
    w.key(hist_name(static_cast<Hist>(i))).begin_object()
        .key("count").value(h.count)
        .key("sum").value(h.sum)
        .key("min").value(h.min)
        .key("max").value(h.max)
        .key("mean").value(h.mean())
        .key("p50").value(h.percentile(50))
        .key("p90").value(h.percentile(90))
        .key("p99").value(h.percentile(99))
        .key("buckets").begin_array();
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_object()
          .key("le").value(Histogram::bucket_upper(b))
          .key("n").value(h.buckets[b])
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return w.take();
}

void Metrics::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open metrics file: " + path);
  f << json();
  if (!f) throw std::runtime_error("failed writing metrics file: " + path);
}

}  // namespace mrbc::obs
