// Bench regression gate: compares a freshly recorded serve_load JSON
// against the last-committed baseline and exits nonzero when a gated
// metric regressed beyond threshold. CI runs this on every push, so a
// perf regression fails the build the same way a broken test does.
//
//   compare_bench <baseline.json> <fresh.json> [--threshold 0.10] [--warn-only]
//                 [--deterministic-only]
//   compare_bench --micro <baseline.csv> <fresh.csv> [--threshold 0.10] [--warn-only]
//   compare_bench --trajectory <BENCH_a.json> <BENCH_b.json> [...]
//   compare_bench --check-metrics <exposition.txt>
//
// Gated keys and their directions:
//   queries_per_second            higher is better
//   latency_us.p99                lower is better
//   ingest.epochs_per_second      higher is better
//   batch_pipeline[*].rounds                  lower is better (deterministic)
//   batch_pipeline[*].encoded_bytes           lower is better (deterministic)
//   batch_pipeline[*].modeled_network_seconds lower is better (deterministic)
//
// --deterministic-only gates only the batch_pipeline keys: those are
// machine-independent (fixed graph, fixed seeds, modeled network), so they
// can hard-fail on any runner, while the throughput keys only gate
// meaningfully on hardware matching the committed baseline's.
//
// --trajectory mode renders several committed BENCH_*.json records as one
// table — a column per record, a row per metric, and the first-to-last
// relative change — so perf history reads off the repo without spelunking
// git log. Informational only: it always exits 0.
//
// --micro mode gates the CSVs the micro benchmarks write
// (micro_threading.csv, micro_kernels.csv, micro_spmm.csv). The
// schema is recognized from the header: rows are matched on their identity
// columns, the measured ratio column (advantage / speedup) gates
// higher-is-better under the same relative threshold, and deterministic
// columns (micro_kernels' pull_rounds — a bit-exact round count) must match
// EXACTLY and fail the run even under --warn-only: timing noise is warnable,
// a direction-heuristic behavior change is not.
//
// A key present in only one record is reported and skipped, not failed —
// the first run after a schema extension gates on whatever overlaps, and
// the next committed baseline picks up the new keys.
//
// --check-metrics mode feeds a scraped /metrics body through the strict
// OpenMetrics parser (obs/prometheus.h) and fails on any malformed line,
// NaN sample, or missing required series — the CI smoke step uses it so
// "curl succeeded" implies "a real scraper would have accepted it".

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/prometheus.h"
#include "util/json.h"

namespace mrbc::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "compare_bench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Looks up a dotted path ("latency_us.p99") in a parsed record; returns
/// false when any segment is absent.
bool lookup(const util::JsonValue& root, const std::string& dotted, double& out) {
  const util::JsonValue* cur = &root;
  std::size_t pos = 0;
  while (pos <= dotted.size()) {
    const std::size_t dot = dotted.find('.', pos);
    const std::string key =
        dotted.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos);
    if (!cur->is_object()) return false;
    const util::JsonValue* next = cur->find(key);
    if (next == nullptr) return false;
    cur = next;
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  if (!cur->is_number()) return false;
  out = cur->as_double();
  return true;
}

struct GateResult {
  int compared = 0;
  int regressed = 0;
  int skipped = 0;
};

/// One gated comparison. higher_better decides which direction counts as a
/// regression; |delta| within threshold always passes.
void gate(const char* label, const util::JsonValue& base, const util::JsonValue& fresh,
          const std::string& key, bool higher_better, double threshold, GateResult& r) {
  double b = 0;
  double f = 0;
  const bool have_b = lookup(base, key, b);
  const bool have_f = lookup(fresh, key, f);
  if (!have_b || !have_f) {
    std::printf("  skip  %-46s (%s)\n", label,
                !have_b && !have_f ? "absent in both"
                : !have_b          ? "absent in baseline"
                                   : "absent in fresh record");
    ++r.skipped;
    return;
  }
  ++r.compared;
  double rel = 0;
  if (b != 0) {
    rel = (f - b) / std::fabs(b);
  } else if (f != 0) {
    rel = higher_better ? 1.0 : -1.0;  // 0 -> nonzero: direction decides
  }
  const double regression = higher_better ? -rel : rel;
  const bool fail = regression > threshold;
  std::printf("  %s %-46s base=%-12.4g fresh=%-12.4g delta=%+.1f%%\n",
              fail ? "FAIL " : "ok   ", label, b, f, rel * 100.0);
  if (fail) ++r.regressed;
}

// ---- --micro: CSV gate for the micro benchmark suites ----------------------

struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  int col(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Parses the comma-separated format util::CsvWriter emits (no quoting —
/// none of our writers produce quoted fields).
Csv parse_csv(const std::string& text) {
  Csv out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = line.find(',', pos);
      fields.push_back(line.substr(pos, comma == std::string::npos ? std::string::npos
                                                                   : comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (out.header.empty()) {
      out.header = std::move(fields);
    } else {
      out.rows.push_back(std::move(fields));
    }
  }
  return out;
}

/// Identity / gated / deterministic columns per recognized micro CSV schema.
struct MicroSchema {
  const char* name;
  std::vector<std::string> key_cols;   ///< row identity (must match to compare)
  std::string ratio_col;               ///< gated, higher is better
  std::vector<std::string> det_cols;   ///< must match exactly, even --warn-only
};

const MicroSchema* recognize(const Csv& csv) {
  static const MicroSchema kSchemas[] = {
      {"micro_kernels", {"workload", "engine", "batch"}, "speedup", {"pull_rounds"}},
      // micro_spmm: the replication byte win gates like a speedup; rounds and
      // encoded bytes are bit-deterministic, so any drift is a protocol change.
      {"micro_spmm", {"workload", "hosts", "c"}, "bytes_reduction",
       {"rounds", "encoded_bytes"}},
      {"micro_threading", {"hosts"}, "advantage", {}},
  };
  for (const MicroSchema& s : kSchemas) {
    bool ok = csv.col(s.ratio_col) >= 0;
    for (const std::string& k : s.key_cols) ok = ok && csv.col(k) >= 0;
    if (ok) return &s;
  }
  return nullptr;
}

int micro_gate(const std::string& base_path, const std::string& fresh_path, double threshold,
               bool warn_only) {
  const Csv base = parse_csv(read_file(base_path));
  const Csv fresh = parse_csv(read_file(fresh_path));
  const MicroSchema* schema = recognize(fresh);
  if (schema == nullptr) {
    std::fprintf(stderr, "compare_bench: unrecognized micro CSV header in %s\n",
                 fresh_path.c_str());
    return 2;
  }
  std::printf("compare_bench --micro [%s]: %s vs %s (threshold %.0f%%)\n", schema->name,
              base_path.c_str(), fresh_path.c_str(), threshold * 100.0);

  const auto key_of = [&](const Csv& csv, const std::vector<std::string>& row) {
    std::string key;
    for (const std::string& k : schema->key_cols) {
      const int c = csv.col(k);
      key += (c >= 0 && static_cast<std::size_t>(c) < row.size() ? row[c] : "?");
      key += '|';
    }
    return key;
  };

  GateResult r;
  int det_failures = 0;
  for (const std::vector<std::string>& frow : fresh.rows) {
    const std::string key = key_of(fresh, frow);
    const std::vector<std::string>* brow = nullptr;
    for (const std::vector<std::string>& cand : base.rows) {
      if (key_of(base, cand) == key) {
        brow = &cand;
        break;
      }
    }
    if (brow == nullptr) {
      std::printf("  skip  %-46s (absent in baseline)\n", key.c_str());
      ++r.skipped;
      continue;
    }
    const int bc = base.col(schema->ratio_col);
    const int fc = fresh.col(schema->ratio_col);
    if (bc >= 0 && fc >= 0) {
      ++r.compared;
      const double b = std::atof((*brow)[bc].c_str());
      const double f = std::atof(frow[fc].c_str());
      const double rel = b != 0 ? (f - b) / std::fabs(b) : 0;
      const bool fail = -rel > threshold;  // ratio columns are higher-better
      std::printf("  %s %-46s base=%-12.4g fresh=%-12.4g delta=%+.1f%%\n",
                  fail ? "FAIL " : "ok   ", (key + schema->ratio_col).c_str(), b, f,
                  rel * 100.0);
      if (fail) ++r.regressed;
    }
    for (const std::string& det : schema->det_cols) {
      const int bd = base.col(det);
      const int fd = fresh.col(det);
      if (bd < 0 || fd < 0) continue;
      ++r.compared;
      const bool fail = (*brow)[bd] != frow[fd];
      std::printf("  %s %-46s base=%-12s fresh=%-12s (deterministic)\n",
                  fail ? "FAIL " : "ok   ", (key + det).c_str(), (*brow)[bd].c_str(),
                  frow[fd].c_str());
      if (fail) ++det_failures;
    }
  }
  std::printf("compared %d, regressed %d, deterministic mismatches %d, skipped %d\n",
              r.compared, r.regressed, det_failures, r.skipped);
  if (det_failures > 0) {
    std::printf("deterministic columns drifted: failing even under --warn-only\n");
    return 1;
  }
  if (r.regressed > 0 && warn_only) {
    std::printf("warn-only mode: regressions reported, exit 0\n");
    return 0;
  }
  return r.regressed > 0 ? 1 : 0;
}

// ---- --trajectory: cross-record table over committed BENCH_*.json ----------

/// Prints one column per record (chronological when the files carry dated
/// names, e.g. BENCH_2026-08-08.json) for every throughput and
/// batch-pipeline metric present anywhere, plus the first-to-last relative
/// change. Purely informational — trends are for humans; regressions are
/// the two-record gate's job.
int trajectory(const std::vector<std::string>& paths) {
  std::vector<util::JsonValue> records;
  records.reserve(paths.size());
  for (const std::string& p : paths) records.push_back(util::json_parse(read_file(p)));

  const auto basename = [](const std::string& p) {
    const std::size_t slash = p.find_last_of('/');
    return slash == std::string::npos ? p : p.substr(slash + 1);
  };
  std::printf("%-44s", "metric");
  for (const std::string& p : paths) {
    std::string name = basename(p);
    if (name.size() > 14) name = name.substr(name.size() - 14);
    std::printf(" %14s", name.c_str());
  }
  std::printf(" %9s\n", "change");

  std::vector<std::pair<std::string, std::string>> keys = {
      {"queries_per_second", "queries_per_second"},
      {"latency_us.p99", "latency_us.p99"},
      {"ingest.epochs_per_second", "ingest.epochs_per_second"},
  };
  // Union of batch_pipeline entry names across all records, in first-seen
  // order; each contributes its deterministic keys.
  std::vector<std::string> pipelines;
  for (const util::JsonValue& rec : records) {
    if (!rec.is_object()) continue;
    const util::JsonValue* arr = rec.find("batch_pipeline");
    if (arr == nullptr || !arr->is_array()) continue;
    for (const util::JsonValue& e : arr->as_array()) {
      const util::JsonValue* n = e.is_object() ? e.find("name") : nullptr;
      if (n == nullptr) continue;
      bool seen = false;
      for (const std::string& p : pipelines) seen = seen || p == n->as_string();
      if (!seen) pipelines.push_back(n->as_string());
    }
  }

  const auto pipeline_value = [](const util::JsonValue& rec, const std::string& name,
                                 const char* key, double& out) {
    if (!rec.is_object()) return false;
    const util::JsonValue* arr = rec.find("batch_pipeline");
    if (arr == nullptr || !arr->is_array()) return false;
    for (const util::JsonValue& e : arr->as_array()) {
      if (!e.is_object()) continue;
      const util::JsonValue* n = e.find("name");
      if (n == nullptr || n->as_string() != name) continue;
      return lookup(e, key, out);
    }
    return false;
  };

  const auto print_row = [&](const std::string& label,
                             const std::function<bool(const util::JsonValue&, double&)>& get) {
    std::printf("%-44s", label.c_str());
    double first = 0, last = 0;
    bool have_first = false, have_last = false;
    for (const util::JsonValue& rec : records) {
      double v = 0;
      if (get(rec, v)) {
        std::printf(" %14.6g", v);
        if (!have_first) {
          first = v;
          have_first = true;
        }
        last = v;
        have_last = true;
      } else {
        std::printf(" %14s", "-");
      }
    }
    if (have_first && have_last && first != 0) {
      std::printf(" %+8.1f%%\n", (last - first) / std::fabs(first) * 100.0);
    } else {
      std::printf(" %9s\n", "-");
    }
  };

  for (const auto& [label, dotted] : keys) {
    print_row(label, [&](const util::JsonValue& rec, double& v) { return lookup(rec, dotted, v); });
  }
  for (const std::string& name : pipelines) {
    for (const char* key : {"rounds", "encoded_bytes", "modeled_network_seconds"}) {
      print_row("batch_pipeline[" + name + "]." + key,
                [&](const util::JsonValue& rec, double& v) {
                  return pipeline_value(rec, name, key, v);
                });
    }
  }
  return 0;
}

int check_metrics(const std::string& path) {
  const std::string body = read_file(path);
  std::vector<obs::PromSample> samples;
  try {
    samples = obs::prom_parse(body);
  } catch (const obs::PromParseError& e) {
    std::fprintf(stderr, "compare_bench: exposition is malformed: %s\n", e.what());
    return 1;
  }
  // The series an operator dashboard would page on; absence means the
  // endpoint silently lost coverage.
  static const char* kRequired[] = {
      "mrbc_serve_uptime_seconds",
      "mrbc_serve_resident_memory_bytes",
      "mrbc_serve_epoch_lag_seconds",
      "mrbc_serve_requests_total",
      "mrbc_serve_rejected_total",
      "mrbc_serve_bytes_total",
      "mrbc_serve_window_qps",
      "mrbc_serve_window_request_latency_us",
      "mrbc_serve_ingest_queue_depth",
      "mrbc_serve_ingest_oldest_batch_age_seconds",
      "mrbc_serve_coalescing_factor",
  };
  int rc = 0;
  for (const char* name : kRequired) {
    if (obs::prom_find(samples, name) == nullptr) {
      std::fprintf(stderr, "compare_bench: required series %s missing\n", name);
      rc = 1;
    }
  }
  std::printf("exposition ok: %zu samples, all %zu required series present\n", samples.size(),
              sizeof(kRequired) / sizeof(kRequired[0]));
  return rc;
}

int run(int argc, char** argv) {
  if (argc >= 3 && !std::strcmp(argv[1], "--check-metrics")) return check_metrics(argv[2]);
  if (argc >= 3 && !std::strcmp(argv[1], "--trajectory")) {
    return trajectory(std::vector<std::string>(argv + 2, argv + argc));
  }

  const bool micro = argc >= 2 && !std::strcmp(argv[1], "--micro");
  if (micro) {
    --argc;
    ++argv;  // shift: argv[1]/argv[2] are the CSV paths below
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: compare_bench <baseline.json> <fresh.json> [--threshold 0.10] "
                 "[--warn-only] [--deterministic-only]\n"
                 "       compare_bench --micro <baseline.csv> <fresh.csv> [--threshold 0.10] "
                 "[--warn-only]\n"
                 "       compare_bench --trajectory <BENCH_a.json> <BENCH_b.json> [...]\n"
                 "       compare_bench --check-metrics <exposition.txt>\n");
    return 2;
  }
  double threshold = 0.10;
  bool warn_only = false;
  bool deterministic_only = false;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--threshold") && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else if (!std::strncmp(argv[i], "--threshold=", 12)) {
      threshold = std::atof(argv[i] + 12);
    } else if (!std::strcmp(argv[i], "--warn-only")) {
      warn_only = true;
    } else if (!std::strcmp(argv[i], "--deterministic-only")) {
      deterministic_only = true;
    } else {
      std::fprintf(stderr, "compare_bench: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (micro) return micro_gate(argv[1], argv[2], threshold, warn_only);

  const util::JsonValue base = util::json_parse(read_file(argv[1]));
  const util::JsonValue fresh = util::json_parse(read_file(argv[2]));

  std::printf("compare_bench: %s vs %s (threshold %.0f%%)\n", argv[1], argv[2],
              threshold * 100.0);
  GateResult r;
  if (!deterministic_only) {
    gate("queries_per_second", base, fresh, "queries_per_second", /*higher_better=*/true,
         threshold, r);
    gate("latency_us.p99", base, fresh, "latency_us.p99", /*higher_better=*/false, threshold,
         r);
    gate("ingest.epochs_per_second", base, fresh, "ingest.epochs_per_second",
         /*higher_better=*/true, threshold, r);
  }

  // Batch-pipeline entries match by name; each gated key is deterministic,
  // so any drift is a real engine change, not noise.
  const auto pipeline_of = [](const util::JsonValue& rec,
                              const std::string& name) -> const util::JsonValue* {
    if (!rec.is_object()) return nullptr;
    const util::JsonValue* arr = rec.find("batch_pipeline");
    if (arr == nullptr || !arr->is_array()) return nullptr;
    for (const util::JsonValue& e : arr->as_array()) {
      if (!e.is_object()) continue;
      const util::JsonValue* n = e.find("name");
      if (n != nullptr && n->as_string() == name) return &e;
    }
    return nullptr;
  };
  std::vector<std::string> names;
  if (fresh.is_object()) {
    const util::JsonValue* arr = fresh.find("batch_pipeline");
    if (arr != nullptr && arr->is_array()) {
      for (const util::JsonValue& e : arr->as_array()) {
        if (!e.is_object()) continue;
        const util::JsonValue* n = e.find("name");
        if (n != nullptr) names.push_back(n->as_string());
      }
    }
  }
  if (names.empty()) {
    std::printf("  skip  batch_pipeline[*]                             (absent in fresh record)\n");
    ++r.skipped;
  }
  for (const std::string& name : names) {
    const util::JsonValue* b = pipeline_of(base, name);
    const util::JsonValue* f = pipeline_of(fresh, name);
    if (b == nullptr || f == nullptr) {
      std::printf("  skip  batch_pipeline[%s] (absent in %s)\n", name.c_str(),
                  b == nullptr ? "baseline" : "fresh record");
      ++r.skipped;
      continue;
    }
    for (const char* key : {"rounds", "encoded_bytes", "modeled_network_seconds"}) {
      const std::string label = "batch_pipeline[" + name + "]." + key;
      gate(label.c_str(), *b, *f, key, /*higher_better=*/false, threshold, r);
    }
  }

  std::printf("compared %d, regressed %d, skipped %d\n", r.compared, r.regressed, r.skipped);
  if (r.regressed > 0 && warn_only) {
    std::printf("warn-only mode: regressions reported, exit 0\n");
    return 0;
  }
  return r.regressed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace mrbc::bench

int main(int argc, char** argv) { return mrbc::bench::run(argc, argv); }
