#pragma once
// Edge update batches: the unit of churn the streaming subsystem ingests.
// Real dynamic-graph services absorb updates in batches rather than one
// edge at a time (STINGER, Bergamini & Meyerhenke ESA'15) — batching is
// what lets incremental BC amortize affected-source detection and reuse
// the MRBC source-batching machinery (Lemma 8) for the re-execution.

#include <cstdint>
#include <vector>

#include "comm/codec.h"
#include "graph/graph.h"
#include "util/serialize.h"

namespace mrbc::stream {

enum class EdgeOpKind : std::uint8_t {
  kInsert = 0,
  kDelete = 1,
};

struct EdgeOp {
  graph::Edge edge;
  EdgeOpKind kind = EdgeOpKind::kInsert;

  friend bool operator==(const EdgeOp&, const EdgeOp&) = default;
};

/// An ordered list of edge insertions/deletions applied atomically as one
/// epoch transition (apply_batch). Order matters within a batch: a delete
/// after an insert of the same edge removes it, and vice versa.
struct EdgeBatch {
  std::vector<EdgeOp> ops;

  void insert(graph::VertexId src, graph::VertexId dst) {
    ops.push_back({{src, dst}, EdgeOpKind::kInsert});
  }
  void erase(graph::VertexId src, graph::VertexId dst) {
    ops.push_back({{src, dst}, EdgeOpKind::kDelete});
  }

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
  void clear() { ops.clear(); }

  /// Wire format (used by the distributed ingest path): [count:u32] then
  /// per op [src:u32][dst:u32][kind:u8]. Written explicitly rather than as
  /// a POD vector so struct padding never hits the wire. Under
  /// CodecMode::kFull the count and dst become varints and src is sent as
  /// a zigzag varint delta from the previous op's src (batches cluster
  /// around hot vertices, so consecutive deltas are small either way);
  /// kRaw reproduces the fixed-width layout byte-for-byte.
  void serialize(util::SendBuffer& buf,
                 comm::CodecMode mode = comm::CodecMode::kRaw) const;
  static EdgeBatch deserialize(util::RecvBuffer& buf,
                               comm::CodecMode mode = comm::CodecMode::kRaw);

  /// Fixed-width serialized size in bytes (raw ingest traffic accounting).
  std::size_t wire_bytes() const { return sizeof(std::uint32_t) + ops.size() * 9; }

  /// Exact serialized size under `mode` (equals wire_bytes() for kRaw).
  std::size_t wire_bytes(comm::CodecMode mode) const;
};

/// The graph after a batch, and the ops that changed it in batch order.
struct AppliedBatch {
  graph::Graph graph;
  std::vector<EdgeOp> applied;
};

/// Applies `batch` to `g`, op by op in batch order. `g`'s rows must be
/// sorted and unique with no self-loops (build_graph's shape, see
/// normalize_rows); the returned graph's rows are too. An op is reported
/// iff it changes the graph at its place in the batch:
///   - an insert of a present edge or a delete of an absent one changes
///     nothing, and self-loops and endpoints >= n are dropped;
///   - an insert then a delete of one edge nets out, and both are reported;
///   - a delete then an insert of an edge of `g` restores it.
/// The next CSR is one merge pass over `g`'s rows and the batch's sorted
/// changes; when no op changes the graph, `g` itself is returned.
AppliedBatch apply_batch(graph::Graph g, const EdgeBatch& batch);

/// `g` with sorted, unique, self-loop-free rows, as apply_batch needs.
/// Returned as is when it already has them (build_graph and the
/// generators guarantee it); a raw CSR is rebuilt through build_graph.
graph::Graph normalize_rows(graph::Graph g);

}  // namespace mrbc::stream
