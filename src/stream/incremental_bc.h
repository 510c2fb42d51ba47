#pragma once
// Incremental maintenance of sampled betweenness centrality under edge
// churn, in the spirit of Bergamini & Meyerhenke ("Fully-dynamic
// Approximation of Betweenness Centrality", ESA'15): scores over a fixed
// sampled source set are kept exact across batches by re-executing only
// the sources whose SSSP DAG the batch actually touched.
//
// Per batch:
//   1. apply_batch applies the ops in order to the current CSR and yields
//      the next CSR and the ops that changed it (epoch transition);
//   2. affected-source detection probes each applied op's endpoints
//      against the retained per-source distance tables:
//        insert (u,v): s affected iff d_s(u) finite and (v unreachable or
//                      d_s(u)+1 <= d_s(v)) — a shorter path (<) or an
//                      additional shortest path (=) appears;
//        delete (u,v): s affected iff d_s(v) == d_s(u)+1 — the edge lay on
//                      s's shortest-path DAG (deleting a non-DAG edge can
//                      change neither distances nor path counts).
//      The OR over a batch's ops is exact (no false negatives): any
//      cascade of changes starts at an op whose old-distance test fires.
//   3. each affected source's stale dependency contributions are
//      subtracted from the maintained scores, and exactly the affected
//      sources are re-run through the batched MRBC forward/accumulation
//      phases on partition() of the next CSR; their new contributions are
//      added back. An unaffected source's tables are already those of the
//      next CSR, so re-running it would change nothing.
//
// Scores are maintained UNscaled (the plain sum over the sampled source
// set, exactly what brandes_bc_sources produces for the same sources —
// which is how the churn fuzzer validates bit-level agreement);
// scaled_scores() applies the n/k Bader et al. estimator factor.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mrbc.h"
#include "stream/edge_batch.h"

namespace mrbc::stream {

struct IncrementalBcOptions {
  /// Sampled sources (>= n means exact BC maintenance).
  std::uint32_t num_samples = 64;
  std::uint64_t seed = 1;
  /// Distributed execution configuration for re-runs (collect_tables is
  /// forced on internally — the tables are the incremental state).
  core::MrbcOptions mrbc;
};

/// Per-batch maintenance report (the daemon's /metrics and
/// bench/stream_churn.cpp sum these).
struct BatchReport {
  std::uint64_t epoch = 0;
  std::size_t applied_ops = 0;
  std::size_t affected_sources = 0;   ///< sources re-executed
  sim::RunStats reexec;               ///< MRBC forward+backward of the re-run
};

class IncrementalBc {
 public:
  /// `base` is normalized first (normalize_rows).
  explicit IncrementalBc(graph::Graph base, IncrementalBcOptions options = {});

  /// Unscaled maintained scores: sum of dependencies over sources().
  const core::BcScores& scores() const { return bc_; }
  /// n/k-scaled estimate of every vertex's BC from the k sampled sources
  /// (the uniform-sampling estimator of Bader et al.).
  core::BcScores scaled_scores() const;

  const std::vector<graph::VertexId>& sources() const { return sources_; }
  /// The graph after the last apply(); rows sorted, unique, no self-loops.
  const graph::Graph& graph() const { return graph_; }
  /// Advances once per apply(), whether or not the batch changed the graph.
  std::uint64_t epoch() const { return epoch_; }
  /// graph() partitioned over mrbc.{num_hosts, policy}, which re-execution
  /// uses too. Built on first use after each change to the graph, so at
  /// most once per graph change.
  const partition::Partition& partition();

  /// Ingests one batch and restores score exactness. Returns what it cost.
  BatchReport apply(const EdgeBatch& batch);

  /// Durable snapshot of the maintained state (CSR + epoch counters +
  /// sources + scores + retained per-source tables) as a versioned
  /// crc32-framed file (engine/snapshot.h).
  void save(const std::string& path) const;

  /// Rebuilds an IncrementalBc from a save() snapshot; subsequent apply()
  /// calls produce scores bit-identical to the uninterrupted maintainer.
  /// `options` supplies the execution configuration (it is not recorded in
  /// the snapshot); throws sim::SnapshotError on a missing/corrupt file.
  static IncrementalBc load(const std::string& path, IncrementalBcOptions options = {});

 private:
  struct RestoreTag {};
  IncrementalBc(graph::Graph base, IncrementalBcOptions options, RestoreTag);

  /// Re-runs `source_idxs` through MRBC on partition(), swapping their
  /// stale contributions for fresh ones.
  sim::RunStats reexecute(const std::vector<std::uint32_t>& source_idxs);

  IncrementalBcOptions opts_;
  graph::Graph graph_;
  std::uint64_t epoch_ = 0;
  std::uint64_t graph_changes_ = 0;  ///< applies that changed graph_
  /// partition()'s cache of graph_; null until used, reset by every apply
  /// that changes graph_.
  std::unique_ptr<partition::Partition> partition_;
  std::vector<graph::VertexId> sources_;
  core::BcScores bc_;
  /// Retained per-source tables, indexed [source_idx][vertex]: the state
  /// that makes O(1) affected-source probes and stale-contribution
  /// subtraction possible.
  std::vector<std::vector<std::uint32_t>> dist_;
  std::vector<std::vector<double>> sigma_;
  std::vector<std::vector<double>> dep_;
};

}  // namespace mrbc::stream
