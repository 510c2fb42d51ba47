#pragma once
// Per-call span ledger over the program's existing obs::Tracer. The traced
// run brackets each public call in a span of the benchmark's own, then
// reads the spans the call emitted (substrate reduce/broadcast/scatter,
// BSP host compute, stream probe/rerun) to split the call's wall time into
// layers. Nothing under src/ is instrumented for the benchmark.

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Spans of one bracketed call. `wall_s` is the benchmark's own span.
struct CallTrace {
  double wall_s = 0;
  double start_us = 0;
  double end_us = 0;
  std::vector<mrbc::obs::SpanRecord> spans;

  /// Sum of the durations of measured (not modeled) spans named `names`.
  double sum_seconds(std::initializer_list<std::string_view> names) const;
  /// Seconds of the call's window covered by at least one measured span
  /// named `names` (the union of their intervals, so spans of hosts that
  /// ran in parallel are not counted twice).
  double covered_seconds(std::initializer_list<std::string_view> names) const;
};

/// Enables the global tracer for its lifetime, sized so a call's spans fit
/// without wrapping; record() clears the ring before each call and counts
/// any span the ring had to drop.
class Ledger {
 public:
  explicit Ledger(std::size_t capacity);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  template <typename Fn>
  CallTrace record(const char* name, Fn&& fn) {
    begin();
    {
      mrbc::obs::Span span(mrbc::obs::Category::kOther, name);
      fn();
    }
    return end(name);
  }

  std::uint64_t dropped() const { return dropped_; }

 private:
  void begin();
  CallTrace end(const char* name);

  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
