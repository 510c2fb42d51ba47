#pragma once
// Shared fixtures for the test suite: a corpus of structured and random
// graphs with known properties, and comparison helpers for BC results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bc_common.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace mrbc::testing {

using graph::Graph;
using graph::VertexId;

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// Small structured graphs whose BC values are known/easily derived; used
/// across the algorithm equivalence suites.
inline std::vector<NamedGraph> structured_corpus() {
  std::vector<NamedGraph> corpus;
  corpus.push_back({"path10", graph::path(10)});
  corpus.push_back({"bipath12", graph::bidirectional_path(12)});
  corpus.push_back({"cycle9", graph::cycle(9)});
  corpus.push_back({"complete6", graph::complete(6)});
  corpus.push_back({"star11", graph::star(11)});
  corpus.push_back({"tree15", graph::binary_tree(15)});
  corpus.push_back({"grid4x4", graph::road_grid(4, 4, 0.0, 1)});
  // Diamond: two equal-length shortest paths 0->1->3, 0->2->3.
  corpus.push_back({"diamond", graph::build_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}})});
  // Disconnected pieces.
  corpus.push_back({"two_paths", graph::build_graph(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}})});
  corpus.push_back({"singleton", graph::build_graph(1, {})});
  corpus.push_back({"empty5", graph::build_graph(5, {})});
  return corpus;
}

/// Random graphs across densities/shapes; seeds fixed for reproducibility.
inline std::vector<NamedGraph> random_corpus() {
  std::vector<NamedGraph> corpus;
  corpus.push_back({"er40_sparse", graph::erdos_renyi(40, 0.05, 7)});
  corpus.push_back({"er40_dense", graph::erdos_renyi(40, 0.25, 11)});
  corpus.push_back({"er80", graph::erdos_renyi(80, 0.06, 13)});
  corpus.push_back({"rmat7", graph::rmat({.scale = 7, .edge_factor = 4.0, .seed = 3})});
  corpus.push_back({"kron7", graph::kronecker(7, 4.0, 5)});
  corpus.push_back({"dag50", graph::random_dag(50, 0.08, 17)});
  corpus.push_back({"web", graph::web_crawl_like(6, 4.0, 3, 8, 19)});
  corpus.push_back(
      {"scc60", graph::strongly_connected_overlay(graph::erdos_renyi(60, 0.03, 23), 23)});
  return corpus;
}

/// Asserts two BC score vectors agree to within floating-point accumulation
/// tolerance (relative for large values).
inline void expect_bc_equal(const core::BcScores& expected, const core::BcScores& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    const double tol = 1e-7 * std::max(1.0, std::abs(expected[v]));
    EXPECT_NEAR(expected[v], actual[v], tol) << label << " vertex " << v;
  }
}

/// Asserts full per-source tables agree.
inline void expect_tables_equal(const core::BcResult& expected, const core::BcResult& actual,
                                const std::string& label) {
  ASSERT_EQ(expected.sources, actual.sources) << label;
  ASSERT_EQ(expected.dist.size(), actual.dist.size()) << label;
  for (std::size_t s = 0; s < expected.dist.size(); ++s) {
    EXPECT_EQ(expected.dist[s], actual.dist[s]) << label << " dist row " << s;
    ASSERT_EQ(expected.sigma[s].size(), actual.sigma[s].size());
    for (std::size_t v = 0; v < expected.sigma[s].size(); ++v) {
      EXPECT_NEAR(expected.sigma[s][v], actual.sigma[s][v],
                  1e-7 * std::max(1.0, std::abs(expected.sigma[s][v])))
          << label << " sigma[" << s << "][" << v << "]";
      EXPECT_NEAR(expected.delta[s][v], actual.delta[s][v],
                  1e-7 * std::max(1.0, std::abs(expected.delta[s][v])))
          << label << " delta[" << s << "][" << v << "]";
    }
  }
}

/// FNV-1a over the score bytes: one constant pins every score bit.
inline std::uint64_t score_hash(const core::BcScores& bc) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const std::uint8_t*>(bc.data());
  for (std::size_t i = 0; i < bc.size() * sizeof(double); ++i) {
    hash = (hash ^ p[i]) * 0x100000001b3ull;
  }
  return hash;
}

}  // namespace mrbc::testing
