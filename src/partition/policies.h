#pragma once
// Edge-assignment policies: given the global graph, produce the host id for
// every edge. Kept separate from Partition so tests can check assignment
// properties (coverage, balance, grid structure) without building proxies.

#include <vector>

#include "graph/graph.h"
#include "partition/partition.h"

namespace mrbc::partition {

/// Returns one host id per edge of `g`, in the graph's CSR edge order
/// (edge i is the i-th entry of out_targets traversed by ascending source).
std::vector<HostId> assign_edges(const Graph& g, HostId num_hosts, Policy policy);

/// Owner host of a single edge under the stateless policies, consistent
/// with assign_edges: streaming ingest uses this to route edge deltas to
/// the host that will own them without materializing the whole graph.
/// kGeneralVertexCut and kRandomEdge assign per-run (greedy state / RNG
/// stream), so single-edge routing falls back to a deterministic hash of
/// the endpoints — stable across batches, balanced, but not guaranteed to
/// match a later assign_edges pass. Endpoints >= num_vertices (ingest ops
/// naming no vertex) are owned like num_vertices - 1.
HostId edge_owner(const graph::Edge& e, graph::VertexId num_vertices, HostId num_hosts,
                  Policy policy);

/// Rendezvous (highest-random-weight) choice of the survivor that adopts a
/// dead host's logical shard: every candidate in `alive` is scored by a
/// hash of (logical, candidate) and the highest score wins. Every survivor
/// computes the same owner with no coordination, and removing a candidate
/// relocates only the shards that pointed at it — the minimal-disruption
/// property that keeps repeated deaths from reshuffling healthy shards.
/// `alive` must be non-empty; `logical` itself may appear in it (a shard
/// whose host is alive maps to itself only if it wins, so callers normally
/// pass the post-death survivor set).
HostId handoff_owner(HostId logical, const std::vector<HostId>& alive);

}  // namespace mrbc::partition
