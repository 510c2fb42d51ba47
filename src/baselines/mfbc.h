#pragma once
// Maximal-Frontier BC (MFBC, Solomonik et al., SC'17): betweenness
// centrality formulated as sparse-matrix operations over a (min,+)-style
// semiring, with Bellman-Ford shortest paths — the "maximal frontier"
// carries only entries that changed in the previous iteration. The paper's
// implementation runs on the Cyclops Tensor Framework; ours runs the same
// algorithm over the matrix/ distributed sparse-matrix backend
// (matrix/dist_engine.h): a replicated 2.5D-style process grid whose
// replication knob trades memory for a c-fold cut in the frontier traffic
// that makes MFBC communication-heavy relative to MRBC/SBBC (Table 2). At
// the default replication = 1 the backend degenerates to the historical 1D
// row-partitioned product with its per-iteration frontier allgather. Its
// rounds run on sim::BspLoop, like MRBC's and SBBC's.

#include <vector>

#include "comm/codec.h"
#include "core/bc_common.h"
#include "engine/cluster.h"
#include "graph/graph.h"

namespace mrbc::baselines {

using core::BcResult;
using graph::Graph;
using graph::VertexId;

struct MfbcOptions {
  std::uint32_t num_hosts = 4;
  /// Sources processed simultaneously; MFBC favors the largest batch that
  /// fits in memory (Section 5.2).
  std::uint32_t batch_size = 32;
  bool collect_tables = false;
  /// Run the per-host matrix products on the shared thread pool. The 1D row
  /// partition makes the products write-disjoint; per-host changed lists are
  /// merged in host order, so results match the sequential sweep exactly.
  bool parallel_hosts = false;
  /// Replication factor c of the 2.5D-style process grid (matrix/grid.h):
  /// hosts arrange as (num_hosts / c) rows x c layers, each grid row's c
  /// members replicate that row-block of the tables and split the frontier
  /// by column layer. 1 reproduces the historical 1D row partition byte for
  /// byte. Must divide num_hosts, be a power of two, and not exceed
  /// matrix::ProcessGrid::kColumnPanels; mfbc_bc throws
  /// std::invalid_argument otherwise. BC scores and round counts are
  /// bit-identical across every legal c.
  std::uint32_t replication = 1;
  sim::NetworkModel network;
  /// Wire codec for the backend's frontier and partial-product traffic. All
  /// MFBC bytes flow through serialized comm::Substrate scatter messages;
  /// decoded values are bit-identical across modes, only the wire shrinks.
  comm::CodecMode codec = comm::CodecMode::kRaw;
  /// Fault source, as sim::ClusterOptions::fault (nullptr = fault-free);
  /// non-owning, and its crash fires once across all batches.
  sim::FaultInjector* fault = nullptr;
};

/// forward/backward hold the BspLoop accounting of the forward iterations
/// and the backward levels, summed over batches.
using MfbcRun = core::BcRun;

MfbcRun mfbc_bc(const Graph& g, const std::vector<VertexId>& sources,
                const MfbcOptions& options = {});

}  // namespace mrbc::baselines
