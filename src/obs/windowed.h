#pragma once
// obs::WindowedMetrics — "what is happening right now" companion to the
// cumulative obs::Metrics histograms. A ring of per-second buckets holds
// counter deltas and value histograms; readers aggregate the buckets whose
// timestamps fall inside a sliding window (10s / 1m / 5m by convention) to
// answer rolling-rate and rolling-percentile questions — qps over the last
// minute, p99 latency over the last ten seconds — that a cumulative
// histogram mathematically cannot (it never forgets).
//
// Hot path: one relaxed enabled-check, one clock read, and a handful of
// relaxed fetch_adds into the current second's bucket. Bucket rotation is
// lock-free: the first recorder to land in a stale slot CASes its second
// stamp to a clearing sentinel, zeroes the slot, and republishes it;
// concurrent recorders spin for the (tiny) clearing window. A recorder
// whose clock reads *behind* the slot's stamp (clock step, descheduled
// thread racing a wrap) drops its sample rather than polluting a newer
// second. Disabled cost is one relaxed load + branch — same budget as the
// tracer's span sites (enforced by bench/micro_obs).
//
// Value histograms use obs::Histogram's log-linear bucket layout and merge
// into the same obs::HistWindow, so a windowed quantile carries the same
// ≤12.5% interpolation bound as a cumulative one — tight enough that a
// windowed p99 reconciles within ±10% of client-side truth (bench/serve_load
// checks exactly that).

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace mrbc::obs {

class WindowedMetrics {
 public:
  /// Seconds on an arbitrary monotonic clock; injectable for rotation
  /// tests. nullptr = steady_seconds().
  using ClockFn = std::int64_t (*)();

  /// Ring covers the largest supported window (300s) plus slack.
  static constexpr std::size_t kDefaultRingSeconds = 384;
  /// Slot-stamp sentinel while a recorder zeroes a recycled bucket.
  static constexpr std::int64_t kClearing = INT64_MIN;

  WindowedMetrics(std::size_t num_counters, std::size_t num_hists,
                  std::size_t ring_seconds = kDefaultRingSeconds, ClockFn clock = nullptr);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::size_t num_counters() const { return num_counters_; }
  std::size_t num_hists() const { return num_hists_; }
  std::size_t ring_seconds() const { return ring_; }

  /// Floor-seconds on the instance's clock (what bucket stamps use).
  std::int64_t now_seconds() const;
  /// Default clock: steady_clock nanoseconds / 1e9, floored. Exposed so
  /// external reconciliation (bench/serve_load) can bucket its own samples
  /// on the identical timeline.
  static std::int64_t steady_seconds();

  /// Adds `delta` to counter `c` in the current second's bucket.
  void add_counter(std::size_t c, std::uint64_t delta = 1) {
    if (!enabled()) return;
    add_counter_at(c, delta, now_seconds());
  }
  /// Records `value` into histogram `h` in the current second's bucket.
  void record_value(std::size_t h, std::uint64_t value) {
    if (!enabled()) return;
    record_value_at(h, value, now_seconds());
  }
  // Explicit-timestamp variants (tests drive rotation deterministically).
  void add_counter_at(std::size_t c, std::uint64_t delta, std::int64_t now_s);
  void record_value_at(std::size_t h, std::uint64_t value, std::int64_t now_s);

  /// Sum of counter `c` over the `window_s` *complete* seconds ending at
  /// now_s - 1 (the current partial second is excluded so rates divide by
  /// exactly window_s). now_s < 0 means "read the clock".
  std::uint64_t counter_sum(std::size_t c, std::size_t window_s, std::int64_t now_s = -1) const;

  /// Histogram `h` merged over the same complete-second window.
  HistWindow hist_window(std::size_t h, std::size_t window_s, std::int64_t now_s = -1) const;

 private:
  /// Rotates the slot for second `s` into place if stale. Returns the slot
  /// base index into data_, or SIZE_MAX when the sample must be dropped
  /// (recorder's clock is behind the slot's current stamp).
  std::size_t claim_slot(std::int64_t s);

  std::size_t counter_index(std::size_t slot, std::size_t c) const {
    return slot * stride_ + c;
  }
  std::size_t hist_meta_index(std::size_t slot, std::size_t h) const {
    return slot * stride_ + num_counters_ + h * 2;  // [count, sum]
  }
  std::size_t hist_bucket_index(std::size_t slot, std::size_t h, std::size_t b) const {
    return slot * stride_ + num_counters_ + num_hists_ * 2 + h * Histogram::kNumBuckets + b;
  }

  std::size_t num_counters_;
  std::size_t num_hists_;
  std::size_t ring_;
  std::size_t stride_;  ///< u64 fields per slot
  ClockFn clock_;
  std::atomic<bool> enabled_{true};
  std::unique_ptr<std::atomic<std::int64_t>[]> seconds_;  ///< slot stamps, -1 = never used
  std::unique_ptr<std::atomic<std::uint64_t>[]> data_;
};

}  // namespace mrbc::obs
