#pragma once
// Prometheus / OpenMetrics text exposition for the obs layer: a small
// writer that renders counters, gauges, and cumulative obs::Histogram
// histograms in the text format scrapers understand, plus a deliberately strict
// parser used by the tests, the CI smoke step, and bench/serve_load's
// reconciliation pass. The parser rejects everything the format forbids —
// malformed names, unquoted or unescaped label values, NaN samples,
// duplicate TYPE declarations — so "the endpoint emitted it" implies "a
// real scraper would have accepted it".

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mrbc::obs {

using PromLabels = std::vector<std::pair<std::string, std::string>>;

/// Streaming text-format writer. TYPE/HELP headers are emitted once per
/// metric family via type(); samples follow in any order.
class PromWriter {
 public:
  /// kind: "counter", "gauge", or "histogram".
  PromWriter& type(std::string_view name, std::string_view kind, std::string_view help);
  PromWriter& sample(std::string_view name, const PromLabels& labels, double value);
  PromWriter& sample(std::string_view name, const PromLabels& labels, std::uint64_t value);
  /// Cumulative-histogram family from an obs::Histogram, merged once: one
  /// <name>_bucket series per occupied le boundary plus le="+Inf",
  /// <name>_sum and <name>_count. Emits nothing when the histogram is
  /// empty (a scrape of an idle daemon stays small).
  PromWriter& histogram(std::string_view name, const PromLabels& labels, const Histogram& h);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void series(std::string_view name, const PromLabels& labels, std::string_view le,
              double value);
  std::string out_;
};

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

class PromParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict text-format parse: returns every sample line; throws
/// PromParseError (with a line number) on any malformed line, a NaN
/// sample value, or a duplicate TYPE declaration. Comment lines other
/// than well-formed # HELP / # TYPE are rejected too.
std::vector<PromSample> prom_parse(std::string_view text);

/// First sample matching name (+ labels subset); nullptr when absent.
const PromSample* prom_find(const std::vector<PromSample>& samples, std::string_view name,
                            const PromLabels& labels = {});

}  // namespace mrbc::obs
