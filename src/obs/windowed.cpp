#include "obs/windowed.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace mrbc::obs {

WindowedMetrics::WindowedMetrics(std::size_t num_counters, std::size_t num_hists,
                                 std::size_t ring_seconds, ClockFn clock)
    : num_counters_(num_counters),
      num_hists_(num_hists),
      ring_(std::max<std::size_t>(ring_seconds, 2)),
      stride_(num_counters + num_hists * 2 + num_hists * Histogram::kNumBuckets),
      clock_(clock) {
  if (stride_ == 0) throw std::invalid_argument("WindowedMetrics: no counters or histograms");
  seconds_ = std::make_unique<std::atomic<std::int64_t>[]>(ring_);
  data_ = std::make_unique<std::atomic<std::uint64_t>[]>(ring_ * stride_);
  for (std::size_t i = 0; i < ring_; ++i) seconds_[i].store(-1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < ring_ * stride_; ++i) data_[i].store(0, std::memory_order_relaxed);
}

std::int64_t WindowedMetrics::steady_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t WindowedMetrics::now_seconds() const {
  return clock_ != nullptr ? clock_() : steady_seconds();
}

std::size_t WindowedMetrics::claim_slot(std::int64_t s) {
  const std::size_t slot = static_cast<std::size_t>(static_cast<std::uint64_t>(s)) % ring_;
  std::atomic<std::int64_t>& stamp = seconds_[slot];
  std::int64_t cur = stamp.load(std::memory_order_acquire);
  while (cur != s) {
    if (cur == kClearing) {  // another recorder is zeroing this slot
      cur = stamp.load(std::memory_order_acquire);
      continue;
    }
    // A stamp newer than our clock means we read the clock before a step
    // (or were descheduled across a full ring wrap): dropping one sample
    // beats charging it to the wrong second.
    if (cur > s) return SIZE_MAX;
    if (stamp.compare_exchange_weak(cur, kClearing, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      const std::size_t base = slot * stride_;
      for (std::size_t i = 0; i < stride_; ++i) {
        data_[base + i].store(0, std::memory_order_relaxed);
      }
      stamp.store(s, std::memory_order_release);
      cur = s;
    }
  }
  return slot;
}

void WindowedMetrics::add_counter_at(std::size_t c, std::uint64_t delta, std::int64_t now_s) {
  const std::size_t slot = claim_slot(now_s);
  if (slot == SIZE_MAX) return;
  data_[counter_index(slot, c)].fetch_add(delta, std::memory_order_relaxed);
}

void WindowedMetrics::record_value_at(std::size_t h, std::uint64_t value, std::int64_t now_s) {
  const std::size_t slot = claim_slot(now_s);
  if (slot == SIZE_MAX) return;
  const std::size_t meta = hist_meta_index(slot, h);
  data_[meta].fetch_add(1, std::memory_order_relaxed);
  data_[meta + 1].fetch_add(value, std::memory_order_relaxed);
  data_[hist_bucket_index(slot, h, Histogram::bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t WindowedMetrics::counter_sum(std::size_t c, std::size_t window_s,
                                           std::int64_t now_s) const {
  if (now_s < 0) now_s = now_seconds();
  const std::int64_t lo = now_s - static_cast<std::int64_t>(std::min(window_s, ring_ - 1));
  std::uint64_t total = 0;
  for (std::size_t slot = 0; slot < ring_; ++slot) {
    const std::int64_t sec = seconds_[slot].load(std::memory_order_acquire);
    if (sec < lo || sec >= now_s) continue;  // complete seconds only
    total += data_[counter_index(slot, c)].load(std::memory_order_relaxed);
  }
  return total;
}

HistWindow WindowedMetrics::hist_window(std::size_t h, std::size_t window_s,
                                        std::int64_t now_s) const {
  if (now_s < 0) now_s = now_seconds();
  const std::int64_t lo = now_s - static_cast<std::int64_t>(std::min(window_s, ring_ - 1));
  HistWindow out;
  for (std::size_t slot = 0; slot < ring_; ++slot) {
    const std::int64_t sec = seconds_[slot].load(std::memory_order_acquire);
    if (sec < lo || sec >= now_s) continue;
    const std::size_t meta = hist_meta_index(slot, h);
    out.count += data_[meta].load(std::memory_order_relaxed);
    out.sum += data_[meta + 1].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      out.buckets[b] += data_[hist_bucket_index(slot, h, b)].load(std::memory_order_relaxed);
    }
  }
  // Slots keep no extremes: the occupied buckets' bounds are the tightest
  // the window knows.
  std::size_t first = 0;
  std::size_t last = Histogram::kNumBuckets;
  while (first < last && out.buckets[first] == 0) ++first;
  while (last > first && out.buckets[last - 1] == 0) --last;
  if (first < last) {
    out.min = Histogram::bucket_lower(first);
    out.max = Histogram::bucket_upper(last - 1);
  }
  return out;
}

}  // namespace mrbc::obs
