#pragma once
// Compressed-sparse-row directed graph. This is the in-memory graph format
// every layer of the system consumes: generators produce it, partitioners
// slice it into per-host local graphs, and the algorithms traverse it.
//
// Both out- and in-adjacency are stored: the forward phase of every BC
// algorithm walks out-edges, the accumulation phase walks in-edges
// (predecessors in the shortest-path DAG), and the CONGEST simulator needs
// both directions because communication channels are bidirectional even on
// directed graphs (Section 2.2 of the paper).

#include <cstdint>
#include <span>
#include <vector>

namespace mrbc::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint64_t;

constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Distance value for "unreachable" throughout the library.
constexpr std::uint32_t kInfDist = static_cast<std::uint32_t>(-1);

/// Immutable CSR graph with out- and in-adjacency.
/// Construct via build_graph (builder.h) or a generator (generators.h).
class Graph {
 public:
  Graph() = default;

  /// Builds from CSR arrays for the out-direction; the in-direction is
  /// derived. `out_offsets` has n+1 entries; `out_targets` has m entries.
  Graph(std::vector<EdgeId> out_offsets, std::vector<VertexId> out_targets);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }

  std::span<const VertexId> out_neighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            static_cast<std::size_t>(out_offsets_[v + 1] - out_offsets_[v])};
  }

  std::span<const VertexId> in_neighbors(VertexId v) const {
    return {in_sources_.data() + in_offsets_[v],
            static_cast<std::size_t>(in_offsets_[v + 1] - in_offsets_[v])};
  }

  std::size_t out_degree(VertexId v) const {
    return static_cast<std::size_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  std::size_t in_degree(VertexId v) const {
    return static_cast<std::size_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  std::size_t max_out_degree() const;
  std::size_t max_in_degree() const;

  /// Returns the reverse graph (every edge flipped).
  Graph transposed() const;

  /// Returns the undirected closure UG: for each edge (u,v), both (u,v) and
  /// (v,u) exist (duplicates removed).
  Graph undirected() const;

  const std::vector<EdgeId>& out_offsets() const { return out_offsets_; }
  const std::vector<VertexId>& out_targets() const { return out_targets_; }

  /// True if edge (u, v) exists. O(out_degree(u)).
  bool has_edge(VertexId u, VertexId v) const;

 private:
  void build_in_adjacency();

  VertexId n_ = 0;
  EdgeId m_ = 0;
  std::vector<EdgeId> out_offsets_;
  std::vector<VertexId> out_targets_;
  std::vector<EdgeId> in_offsets_;
  std::vector<VertexId> in_sources_;
};

/// An edge in COO form; the builder and IO layers work with these.
struct Edge {
  VertexId src;
  VertexId dst;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

}  // namespace mrbc::graph
