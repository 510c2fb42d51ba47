#pragma once
// Result collection for one benchmark run: named metrics with units, the
// attempted/failed operation tally, correctness verdicts, and the context
// record (seed, sizes, pool width, ...) printed before the result line.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (copied; empty -> 0).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (copied; empty -> 0).
double quantile(std::vector<double> v, double q);

/// Relative-tolerance comparison of two score vectors: element i matches
/// when |got[i] - want[i]| <= rel_tol * max(|want[i]|, 1e-3 * max|want|, 1).
/// Returns the number of mismatching elements (a size mismatch counts every
/// element, a NaN always mismatches) and prints the first few to stderr.
std::size_t score_mismatches(const std::vector<double>& got, const std::vector<double>& want,
                             double rel_tol);

/// Relative tolerance every score check in the benchmark uses.
inline constexpr double kScoreTolerance = 1e-9;

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Adds `value` to the metric (starting from 0).
  void add(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; `ok == false` also counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness check: a failure marks the run incorrect and counts as a
  /// failed operation. `what` names the check in the diagnostic on stderr.
  void check(bool ok, const std::string& what);
  /// Marks the run incorrect without counting an operation (drift, dropped
  /// spans, a missing metric).
  void fail(const std::string& why);
  void context(const std::string& key, const std::string& value) { context_[key] = value; }
  void context(const std::string& key, double value);

  bool correct() const { return correct_; }
  /// The metric's value, 0 when it was not measured.
  double value(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }

  /// Prints the context line, then the result line (the last stdout line)
  /// carrying exactly the `required` (name, unit) metrics; a missing one or
  /// a unit mismatch marks the run incorrect.
  void print(const std::vector<std::pair<std::string, std::string>>& required);

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> context_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
