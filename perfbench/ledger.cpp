#include "ledger.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace obs = mrbc::obs;

namespace {

bool named(const obs::SpanRecord& s, std::initializer_list<std::string_view> names) {
  if (s.modeled || s.name == nullptr) return false;
  const std::string_view n(s.name);
  return std::find(names.begin(), names.end(), n) != names.end();
}

}  // namespace

double CallTrace::sum_seconds(std::initializer_list<std::string_view> names) const {
  double us = 0;
  for (const obs::SpanRecord& s : spans) {
    if (named(s, names)) us += s.dur_us;
  }
  return us * 1e-6;
}

double CallTrace::covered_seconds(std::initializer_list<std::string_view> names) const {
  std::vector<std::pair<double, double>> iv;
  for (const obs::SpanRecord& s : spans) {
    if (!named(s, names)) continue;
    const double b = std::max(s.start_us, start_us);
    const double e = std::min(s.start_us + s.dur_us, end_us);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  double us = 0;
  double cur_b = 0;
  double cur_e = -1;
  for (const auto& [b, e] : iv) {
    if (b > cur_e) {
      if (cur_e > cur_b) us += cur_e - cur_b;
      cur_b = b;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_b) us += cur_e - cur_b;
  return us * 1e-6;
}

Ledger::Ledger(std::size_t capacity) { obs::Tracer::global().enable(capacity); }

Ledger::~Ledger() { obs::Tracer::global().disable(); }

void Ledger::begin() { obs::Tracer::global().clear(); }

CallTrace Ledger::end(const char* name) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.quiesce(5.0);
  dropped_ += tracer.dropped();
  CallTrace out;
  out.spans = tracer.snapshot();
  for (const obs::SpanRecord& s : out.spans) {
    if (s.name == name) {
      out.start_us = s.start_us;
      out.end_us = s.start_us + s.dur_us;
      out.wall_s = s.dur_us * 1e-6;
    }
  }
  return out;
}

}  // namespace perfbench
