#pragma once
// Lightweight descriptive statistics used for the evaluation harness:
// per-round compute-time imbalance (Table 1), communication-volume totals
// (Figure 2), and generic min/mean/max summaries.

#include <cstddef>
#include <string>
#include <vector>

namespace mrbc::util {

/// Online accumulator for min / max / mean / variance (Welford).
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const;
  double stddev() const;

  void reset() { *this = RunningStat{}; }

 private:
  std::size_t n_ = 0;
  double min_ = 0.0, max_ = 0.0, mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
};

/// max/mean ratio of a sample; the paper's load-imbalance metric
/// (Table 1: "ratio of maximum computation time and mean computation time
/// across hosts averaged across rounds"). Returns 1 for degenerate input.
double imbalance(const std::vector<double>& values);

/// Arithmetic helpers for report tables.
double mean_of(const std::vector<double>& values);
double max_of(const std::vector<double>& values);

/// Geometric mean; used for "X× faster on average" style summaries as in
/// the paper's abstract.
double geomean_of(const std::vector<double>& values);

/// Quantile q in [0, 1] of a sample (copied; empty -> 0), linearly
/// interpolated at 0-based rank q * (n - 1), as perfbench's report does.
/// The bench/ programs take their medians and quartiles from it.
double quantile(std::vector<double> values, double q);

/// Formats a double with fixed precision (report printing helper).
std::string fmt(double value, int precision = 2);

/// Formats a byte count as a human-readable string (e.g. "1.25 MB").
std::string fmt_bytes(std::size_t bytes);

}  // namespace mrbc::util
