#pragma once
// Construction of CSR graphs from edge lists. Self-loops and duplicate
// edges are removed: the paper's graphs are simple unweighted directed
// graphs, and duplicate edges would corrupt shortest-path counts. Every
// row of the result is sorted ascending.

#include <vector>

#include "graph/graph.h"

namespace mrbc::graph {

/// Builds a Graph over vertices [0, num_vertices) from an arbitrary edge
/// list. Deduplicates edges and drops self-loops. Edges referencing
/// vertices >= num_vertices are invalid (asserted in debug builds).
Graph build_graph(VertexId num_vertices, std::vector<Edge> edges);

}  // namespace mrbc::graph
