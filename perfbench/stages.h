#pragma once
// The two measured stages every workload runs: the batch engines (with the
// durable run) and the daemon under load. Both report through Report and
// record the seeded-deterministic counters in Exact.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "report.h"
#include "serve/server.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;
  std::string checkpoint_dir;  ///< durable MRBC snapshots
};

/// Seeded-deterministic values of a run (round, message and byte counts,
/// modeled seconds, checkpoint volume), formatted exactly: two runs of one
/// seed must produce the same map.
class Exact {
 public:
  void put(const std::string& key, std::uint64_t v);
  void put(const std::string& key, double v);
  const std::map<std::string, std::string>& values() const { return values_; }
  void absorb(const Exact& other);
  /// First key of `a` whose value in `b` differs or is missing ("" if
  /// none).
  static std::string first_difference(const std::map<std::string, std::string>& a,
                                      const std::map<std::string, std::string>& b);

 private:
  std::map<std::string, std::string> values_;
};

/// The daemon configuration every workload serves with.
mrbc::serve::ServerOptions server_options(const Config& c, std::uint64_t seed);

/// Batch stage: MRBC, SBBC, MFBC, weighted MFBC and a durable MRBC,
/// repeated; the end-to-end timings are medians over the repetitions.
class BatchStage {
 public:
  BatchStage(const Config& c, const Inputs& in, const RunOptions& opt, Report& report,
             Exact& exact);
  ~BatchStage();
  BatchStage(const BatchStage&) = delete;
  BatchStage& operator=(const BatchStage&) = delete;

  /// Untraced repetitions for `seconds` (at least one).
  void run_for(double seconds);
  /// One untraced and one traced repetition, then the per-layer metrics.
  void run_traced();
  /// Checks the first repetition's score vectors (which every later one
  /// matched bit for bit) against the sequential Brandes references and
  /// reports the end-to-end metrics.
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Serve stage: loads `server` (started, at epoch 0, over `base`) with the
/// query clients, the open-loop writer and the freshness prober, one
/// segment at a time; finish() checks the final scores against a replica.
class ServeStage {
 public:
  ServeStage(const Config& c, const mrbc::graph::Graph& base, mrbc::serve::Server& server,
             const RunOptions& opt, Report& report);
  ~ServeStage();
  ServeStage(const ServeStage&) = delete;
  ServeStage& operator=(const ServeStage&) = delete;

  /// One segment of load, `seconds` long (traced when opt.trace).
  void run_for(double seconds);
  void finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
