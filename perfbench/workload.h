#pragma once
// The benchmark's workloads: one input graph each, on which every stage
// runs (the batch engines, the durable run and the daemon), so each run
// reports every end-to-end metric. The inputs differ in the property the
// layers key on; README.md says which layer each one stresses.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/weighted.h"
#include "partition/partition.h"

namespace perfbench {

// Settings every workload shares.
inline constexpr std::uint32_t kReplication = 2;   ///< MFBC process-grid c
inline constexpr std::uint32_t kMaxWeight = 10;    ///< weighted MFBC: U[1, kMaxWeight]
/// Compute-pool width of every timed call, the daemon's recomputes
/// included: one thread, the steadiest width on a shared VM. It also leaves
/// the serve stage's client and request threads a free core.
inline constexpr std::size_t kPoolThreads = 1;
/// The width util.mrbc_speedup compares one thread against.
inline constexpr std::size_t kSpeedupThreads = 2;
inline constexpr std::size_t kRequestThreads = 4;  ///< >= the 4 connections
inline constexpr std::size_t kQueryClients = 2;
inline constexpr std::uint32_t kWriterOps = 8;     ///< ops per writer batch
inline constexpr double kWriterPeriodMs = 5.0;     ///< open-loop writer schedule
/// The untraced run alternates the batch and serve stages in kSegments
/// rounds (Config::batch_share says how to split --seconds).
inline constexpr std::size_t kSegments = 3;

struct Config {
  std::string name;
  /// Generator: RMAT (scale, edge_factor) or web_crawl_like (core scale,
  /// core edge factor, tails, tail length).
  bool web_crawl = false;
  int scale = 12;
  double edge_factor = 16.0;
  std::uint32_t tails = 0;
  std::uint32_t tail_len = 0;

  std::uint32_t hosts = 8;         ///< simulated hosts of the batch engines
  std::uint32_t sources = 32;      ///< batch sources
  std::uint32_t batch_size = 32;   ///< MRBC batch
  /// MFBC batch. Several batches per call, so the call's iteration count
  /// (the deepest BFS level of each batch, summed) does not swing by a
  /// whole level from seed to seed.
  std::uint32_t mfbc_batch_size = 8;
  std::uint32_t durable_sources = 16;
  std::size_t durable_interval = 8;  ///< rounds between durable checkpoints

  std::uint32_t serve_samples = 16;
  std::uint32_t serve_hosts = 4;
  /// Whether setup_s also times the daemon's construction and start();
  /// elsewhere it is timed once, as serve.start_s only.
  bool server_in_setup = false;
  /// Timed set-ups before each of the kSegments segments (setup_s is the
  /// median of all of them).
  std::size_t setups_per_segment = 4;
  /// Share of --seconds spent in the batch stage; the rest serves.
  double batch_share = 0.65;
};

/// The named workload, or nullptr. `tiny` shrinks every size for tests.
std::unique_ptr<Config> find_config(const std::string& name, bool tiny);

/// Generated inputs of one workload and seed.
struct Inputs {
  mrbc::graph::Graph graph;
  mrbc::graph::WeightedGraph weighted;
  std::vector<mrbc::graph::VertexId> sources;
  std::unique_ptr<mrbc::partition::Partition> partition;
};

/// Generator call only (timed as graph.gen_s).
mrbc::graph::Graph generate(const Config& c, std::uint64_t seed);
/// Sources drawn uniformly from the largest strongly connected component
/// (for the crawl, from its RMAT core), sorted. Every source then reaches
/// the same vertex set, so the work of a run does not swing with where an
/// id range happens to fall (RMAT ids correlate with degree; a block of
/// isolated ids does no work, a block of tail ids doubles the depth).
std::vector<mrbc::graph::VertexId> pick_sources(const Config& c, const mrbc::graph::Graph& g,
                                                std::uint32_t k, std::uint64_t seed);

}  // namespace perfbench
