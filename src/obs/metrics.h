#pragma once
// obs::Metrics — histograms over the simulator's hot-path quantities
// (message sizes, per-round bytes/messages, work items, retransmit
// attempts, span durations) and the daemon's request latency and ingest
// coalescing, with percentile queries and JSON export. Where RunStats
// counts totals, these are *distributions*: Figure-2-style attribution
// needs to know not just how many bytes moved but how they were shaped
// into messages.
//
// One bucket layout serves every histogram in src/obs, cumulative
// (Histogram) and windowed (obs::WindowedMetrics): values 0..7 get exact
// buckets, then each octave up to 2^30 splits into 8 log-linear
// sub-buckets, and one top bucket holds everything above. Both kinds merge
// into one HistWindow, the only place percentiles are computed and what
// every exporter reads; interpolating inside a sub-bucket bounds a
// quantile's error by its 12.5% width. Recording is an atomic increment
// (well-defined under parallel-host compute), and like the tracer the whole
// layer is compiled in but gated behind one relaxed atomic load so disabled
// runs pay a branch, nothing more.

#include <atomic>
#include <cstdint>
#include <string>

namespace mrbc::obs {

/// Built-in histograms, array-indexed so hot paths never hash a name.
enum class Hist : std::uint8_t {
  kMessageBytes = 0,       ///< per host-pair message wire size (comm::Substrate::deliver)
  kRoundBytes,             ///< total sync bytes per BSP round
  kRoundMessages,          ///< host-pair messages per BSP round
  kRoundWorkItems,         ///< operator applications per BSP round
  kRetransmitAttempts,     ///< delivery attempts per frame (1 = clean)
  kSpanMicros,             ///< wall duration of measured tracer spans
  kCompressionPct,         ///< per-message raw/encoded bytes × 100 (100 = 1.0×)
  kServeCoalescedBatches,  ///< ingest batches folded into one daemon apply pass
  kServeRequestMicros,     ///< daemon request handling time, whole µs
  kCount,
};
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);
const char* hist_name(Hist h);

namespace detail {
inline std::atomic<bool> g_metrics{false};
}  // namespace detail

/// The branch every recording site takes.
inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

struct HistWindow;

/// Fixed-footprint histogram of unsigned values. All mutation is
/// relaxed-atomic into one of a small number of cache-line-isolated shards
/// (selected per recording thread), so pool workers hammering the same
/// histogram never contend on a counter line; merged() folds the shards
/// and gives a consistent-enough view once recording has quiesced (which is
/// when exports run).
class Histogram {
 public:
  /// Buckets 0..7 hold their value exactly; from 8 on, each octave
  /// [2^o, 2^(o+1)) splits into kSubBuckets equal buckets up to octave
  /// kMaxOctave, and the last bucket also takes every value above it.
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kMaxOctave = 29;
  static constexpr std::size_t kNumBuckets = kSubBuckets + (kMaxOctave - 2) * kSubBuckets;
  /// Power of two; recording threads are assigned round-robin.
  static constexpr std::size_t kNumShards = 8;

  void record(std::uint64_t value);

  /// The shards folded into one value, in one pass.
  HistWindow merged() const;
  /// merged().percentile(p).
  double percentile(double p) const;

  void clear();

  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_lower(std::size_t i);
  /// Inclusive upper bound of bucket i; the last bucket's is UINT64_MAX.
  static std::uint64_t bucket_upper(std::size_t i);

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[kNumShards];
};

/// One histogram merged into plain counts: a Histogram's shards (everything
/// since its last clear) or the slots of a WindowedMetrics window.
struct HistWindow {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Observed extremes, 0 when empty. Window slots keep no extremes, so a
  /// window's are the bounds of its occupied buckets.
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[Histogram::kNumBuckets] = {};

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Nearest-rank percentile (p in [0, 100]) with linear interpolation
  /// inside the winning bucket, clamped to [min, max] so p0/p100 are never
  /// widened by bucket granularity. 0 when empty.
  double percentile(double p) const;
};

/// Process-wide set of the built-in histograms.
class Metrics {
 public:
  void enable() { detail::g_metrics.store(true, std::memory_order_release); }
  void disable() { detail::g_metrics.store(false, std::memory_order_relaxed); }
  bool enabled() const { return metrics_enabled(); }
  void clear();

  Histogram& histogram(Hist h) { return builtin_[static_cast<std::size_t>(h)]; }
  const Histogram& histogram(Hist h) const { return builtin_[static_cast<std::size_t>(h)]; }

  /// {"histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
  ///  buckets: [{le, n}, ...]}}} — empty histograms are omitted.
  std::string json() const;
  /// Writes json() to `path`; throws std::runtime_error on failure.
  void write_json(const std::string& path) const;

  static Metrics& global();

 private:
  Histogram builtin_[kNumHists];
};

}  // namespace mrbc::obs
