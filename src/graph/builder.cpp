#include "graph/builder.h"

#include <algorithm>
#include <cassert>

namespace mrbc::graph {

Graph build_graph(VertexId num_vertices, std::vector<Edge> edges) {
  std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<EdgeId> offsets(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    assert(e.src < num_vertices && e.dst < num_vertices);
    ++offsets[e.src + 1];
  }
  for (VertexId v = 0; v < num_vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) targets[i] = edges[i].dst;
  return Graph(std::move(offsets), std::move(targets));
}

}  // namespace mrbc::graph
