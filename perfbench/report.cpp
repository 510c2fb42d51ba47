#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t score_mismatches(const std::vector<double>& got, const std::vector<double>& want,
                             double rel_tol) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  double norm = 0;
  for (double w : want) norm = std::max(norm, std::fabs(w));
  // Scores near zero are differences of large sums (the incremental engine
  // subtracts stale dependencies), so their rounding error follows the
  // vector's magnitude, not their own.
  const double floor = std::max(norm * 1e-3, 1.0);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(std::fabs(want[i]), floor);
    // Written so a NaN on either side counts as a mismatch.
    if (!(std::fabs(got[i] - want[i]) <= rel_tol * scale)) {
      if (bad < 5) {
        std::fprintf(stderr, "perfbench: score %zu is %.17g, reference %.17g\n", i, got[i],
                     want[i]);
      }
      ++bad;
    }
  }
  return bad;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  const auto it = metrics_.find(name);
  metric(name, (it == metrics_.end() ? 0.0 : it->second.value) + value, unit);
}

void Report::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) fail("correctness check failed: " + what);
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

void Report::context(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  context_[key] = buf;
}

void Report::print(const std::vector<std::pair<std::string, std::string>>& required) {
  for (const auto& [name, unit] : required) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      fail("metric " + name + " was not measured");
    } else if (it->second.unit != unit) {
      fail("metric " + name + " has unit " + it->second.unit + ", expected " + unit);
    }
  }
  mrbc::util::JsonWriter ctx;
  ctx.begin_object();
  for (const auto& [k, v] : context_) ctx.key(k).value(v);
  ctx.end_object();
  std::printf("context %s\n", ctx.str().c_str());

  mrbc::util::JsonWriter w;
  w.begin_object()
      .key("correct").value(correct_)
      .key("attempted").value(std::max<std::uint64_t>(attempted_, 1))
      .key("failed").value(failed_)
      .key("metrics").begin_object();
  for (const auto& [name, unit] : required) {
    const auto it = metrics_.find(name);
    const double value = it == metrics_.end() ? 0.0 : it->second.value;
    w.key(name).begin_object().key("value").value(value).key("unit").value(unit).end_object();
  }
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
