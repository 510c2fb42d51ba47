#include "stream/edge_batch.h"

#include <algorithm>
#include <functional>
#include <map>

#include "graph/builder.h"
#include "util/varint.h"

namespace mrbc::stream {

using graph::Edge;
using graph::VertexId;

void EdgeBatch::serialize(util::SendBuffer& buf, comm::CodecMode mode) const {
  comm::CodecWriter w(buf, mode);
  w.meta_u32(static_cast<std::uint32_t>(ops.size()));
  std::uint32_t prev_src = 0;
  for (const EdgeOp& op : ops) {
    if (comm::compress_values(mode)) {
      // Zigzag delta from the previous op's src; raw equivalent is the
      // uint32 the fixed-width layout ships for this field.
      const std::int64_t delta = static_cast<std::int64_t>(op.edge.src) -
                                 static_cast<std::int64_t>(prev_src);
      buf.write_varint(util::zigzag_encode(delta), sizeof(std::uint32_t));
      prev_src = op.edge.src;
    } else {
      w.value_u32(op.edge.src);
    }
    w.value_u32(op.edge.dst);
    w.u8(static_cast<std::uint8_t>(op.kind));
  }
}

EdgeBatch EdgeBatch::deserialize(util::RecvBuffer& buf, comm::CodecMode mode) {
  comm::CodecReader r(buf, mode);
  EdgeBatch batch;
  const auto n = r.meta_u32();
  batch.ops.reserve(n);
  std::int64_t prev_src = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EdgeOp op;
    if (comm::compress_values(mode)) {
      const std::int64_t src = prev_src + util::zigzag_decode(buf.read_varint());
      if (src < 0 || src > 0xFFFFFFFFll) {
        throw std::out_of_range("EdgeBatch: src delta out of range");
      }
      op.edge.src = static_cast<graph::VertexId>(src);
      prev_src = src;
    } else {
      op.edge.src = r.value_u32();
    }
    op.edge.dst = r.value_u32();
    op.kind = static_cast<EdgeOpKind>(r.u8());
    batch.ops.push_back(op);
  }
  return batch;
}

std::size_t EdgeBatch::wire_bytes(comm::CodecMode mode) const {
  std::size_t bytes = comm::encoded_meta_u32_size(static_cast<std::uint32_t>(ops.size()), mode);
  std::uint32_t prev_src = 0;
  for (const EdgeOp& op : ops) {
    if (comm::compress_values(mode)) {
      const std::int64_t delta = static_cast<std::int64_t>(op.edge.src) -
                                 static_cast<std::int64_t>(prev_src);
      bytes += util::varint_size(util::zigzag_encode(delta));
      prev_src = op.edge.src;
    } else {
      bytes += sizeof(std::uint32_t);
    }
    bytes += comm::encoded_value_u32_size(op.edge.dst, mode) + 1;
  }
  return bytes;
}

AppliedBatch apply_batch(graph::Graph g, const EdgeBatch& batch) {
  const VertexId n = g.num_vertices();
  AppliedBatch out;
  // Presence after the ops so far, for every edge the batch has touched.
  std::map<Edge, bool> touched;
  for (const EdgeOp& op : batch.ops) {
    const auto [u, v] = op.edge;
    if (u >= n || v >= n || u == v) continue;
    const auto [it, fresh] = touched.try_emplace(op.edge, false);
    if (fresh) {
      const auto row = g.out_neighbors(u);
      it->second = std::binary_search(row.begin(), row.end(), v);
    }
    const bool insert = op.kind == EdgeOpKind::kInsert;
    if (it->second == insert) continue;
    it->second = insert;
    out.applied.push_back(op);
  }
  if (out.applied.empty()) {
    out.graph = std::move(g);
    return out;
  }

  // Merge each row's old targets with its touched edges, both ascending: a
  // touched edge is kept iff it is present after the batch.
  std::vector<graph::EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> targets;
  targets.reserve(g.num_edges() + out.applied.size());
  auto t = touched.begin();
  for (VertexId u = 0; u < n; ++u) {
    const auto row = g.out_neighbors(u);
    auto r = row.begin();
    for (; t != touched.end() && t->first.src == u; ++t) {
      const VertexId v = t->first.dst;
      for (; r != row.end() && *r < v; ++r) targets.push_back(*r);
      if (r != row.end() && *r == v) ++r;
      if (t->second) targets.push_back(v);
    }
    targets.insert(targets.end(), r, row.end());
    offsets[u + 1] = targets.size();
  }
  out.graph = graph::Graph(std::move(offsets), std::move(targets));
  return out;
}

graph::Graph normalize_rows(graph::Graph g) {
  bool normalized = true;
  for (VertexId u = 0; u < g.num_vertices() && normalized; ++u) {
    const auto row = g.out_neighbors(u);
    normalized = std::adjacent_find(row.begin(), row.end(), std::greater_equal<>()) == row.end() &&
                 !std::binary_search(row.begin(), row.end(), u);
  }
  if (normalized) return g;
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.out_neighbors(u)) edges.push_back({u, v});
  }
  return graph::build_graph(g.num_vertices(), std::move(edges));
}

}  // namespace mrbc::stream
