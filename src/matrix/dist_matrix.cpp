#include "matrix/dist_matrix.h"

#include "graph/builder.h"

namespace mrbc::matrix {

DistMatrix::DistMatrix(const Graph& g, const ProcessGrid& grid) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<graph::Edge>> fwd(grid.hosts);
  std::vector<std::vector<graph::Edge>> bwd(grid.hosts);
  for (VertexId u = 0; u < n; ++u) {
    const HostId r = grid.vertex_row(u, n);
    const HostId l = grid.vertex_layer(u, n);
    for (VertexId w : g.out_neighbors(u)) {
      fwd[grid.host_at(grid.vertex_row(w, n), l)].push_back({u, w});
      bwd[grid.host_at(r, grid.vertex_layer(w, n))].push_back({w, u});
    }
  }
  forward_.reserve(grid.hosts);
  backward_.reserve(grid.hosts);
  for (HostId h = 0; h < grid.hosts; ++h) {
    forward_.push_back(graph::build_graph(n, std::move(fwd[h])));
    backward_.push_back(graph::build_graph(n, std::move(bwd[h])));
  }
}

}  // namespace mrbc::matrix
