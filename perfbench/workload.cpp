#include "workload.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace perfbench {

namespace graph = mrbc::graph;

namespace {

std::vector<Config> all_configs(bool tiny) {
  Config powerlaw;
  powerlaw.name = "batch-powerlaw";
  powerlaw.scale = 13;
  powerlaw.edge_factor = 16.0;
  powerlaw.sources = 32;
  powerlaw.durable_sources = 8;
  powerlaw.serve_samples = 8;

  Config longtail;
  longtail.name = "batch-longtail";
  longtail.web_crawl = true;
  longtail.scale = 13;
  longtail.edge_factor = 10.0;
  longtail.tails = 16;
  longtail.tail_len = 150;
  longtail.sources = 16;
  longtail.durable_sources = 8;
  longtail.durable_interval = 32;
  longtail.serve_samples = 8;

  Config churn;
  churn.name = "serve-churn";
  churn.scale = 12;
  churn.edge_factor = 16.0;
  churn.sources = 32;
  churn.durable_sources = 8;
  churn.server_in_setup = true;
  churn.batch_share = 0.5;

  std::vector<Config> out = {powerlaw, longtail, churn};
  if (tiny) {
    for (Config& c : out) {
      c.scale = c.web_crawl ? 7 : 8;
      c.edge_factor = 6.0;
      c.tails = c.web_crawl ? 2 : 0;
      c.tail_len = c.web_crawl ? 12 : 0;
      c.hosts = 4;
      c.sources = 8;
      c.batch_size = 4;
      c.mfbc_batch_size = 4;
      c.durable_sources = 4;
      c.durable_interval = 2;
      c.serve_samples = 4;
      c.serve_hosts = 2;
      c.setups_per_segment = 1;
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<Config> find_config(const std::string& name, bool tiny) {
  for (Config& c : all_configs(tiny)) {
    if (c.name == name) return std::make_unique<Config>(std::move(c));
  }
  return nullptr;
}

graph::Graph generate(const Config& c, std::uint64_t seed) {
  if (c.web_crawl) {
    return graph::web_crawl_like(c.scale, c.edge_factor, c.tails, c.tail_len, seed);
  }
  return graph::rmat({.scale = c.scale, .edge_factor = c.edge_factor, .seed = seed});
}

std::vector<graph::VertexId> pick_sources(const Config& c, const graph::Graph& g,
                                          std::uint32_t k, std::uint64_t seed) {
  const graph::ComponentResult scc = graph::strongly_connected_components(g);
  std::vector<std::size_t> size(scc.num_components, 0);
  for (graph::VertexId comp : scc.component) ++size[comp];
  const auto largest = static_cast<graph::VertexId>(
      std::max_element(size.begin(), size.end()) - size.begin());
  // The crawl's tail vertices follow its 2^scale core vertices.
  const graph::VertexId limit =
      c.web_crawl ? graph::VertexId{1} << c.scale : g.num_vertices();
  std::vector<graph::VertexId> pool;
  for (graph::VertexId v = 0; v < limit; ++v) {
    if (scc.component[v] == largest) pool.push_back(v);
  }
  k = std::min<std::uint32_t>(k, static_cast<std::uint32_t>(pool.size()));
  mrbc::util::Xoshiro256 rng(seed ^ 0x5eed5eedULL);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng.next_bounded(pool.size() - i)]);
  }
  pool.resize(k);
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace perfbench
