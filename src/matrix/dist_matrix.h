#pragma once
// Distributed sparse adjacency matrix over a ProcessGrid: every edge (u, w)
// is assigned to exactly one host — the one whose grid row owns destination
// w's table block and whose layer sweeps source u's column panel. Host
// (r, l) therefore holds the (row-block r, column-layer l) tile of A, and a
// frontier sliced by column layer drives write-disjoint per-host SpMSpV
// sweeps whose partial products all land in row-block r.
//
// The tiles are materialized as per-host sub-Graphs (CSR views), exactly
// like the historical 1D MFBC partition — at c = 1 the forward tiles *are*
// the historical per-destination-owner sub-graphs. The replicated BC
// iteration that sweeps them — with staged communication, modeled costs,
// and the floating-point reduction tree — lives in dist_engine.h.

#include <vector>

#include "graph/graph.h"
#include "matrix/grid.h"

namespace mrbc::matrix {

using graph::Graph;

/// Per-host CSR tiles of a graph's adjacency pattern on a ProcessGrid.
class DistMatrix {
 public:
  /// Builds the forward and backward (reversed-edge) tiles of every host.
  DistMatrix(const Graph& g, const ProcessGrid& grid);

  /// Tile of host h: edges (u, w) with vertex_row(w) == row_of(h) and
  /// vertex_layer(u) == layer_of(h), as a sub-Graph over global ids.
  const Graph& forward_tile(HostId h) const { return forward_[h]; }

  /// Reversed tile of host h: edge (w, u) present when (u, w) in E,
  /// vertex_row(u) == row_of(h) and vertex_layer(w) == layer_of(h) — the
  /// backward dependency product's operand.
  const Graph& backward_tile(HostId h) const { return backward_[h]; }

 private:
  std::vector<Graph> forward_;
  std::vector<Graph> backward_;
};

}  // namespace mrbc::matrix
