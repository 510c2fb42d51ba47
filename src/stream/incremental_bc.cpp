#include "stream/incremental_bc.h"

#include <algorithm>
#include <cassert>

#include "engine/snapshot.h"
#include "graph/algorithms.h"
#include "obs/trace.h"

namespace mrbc::stream {

using graph::kInfDist;
using graph::VertexId;

namespace {

constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecGraph = 2;
constexpr std::uint32_t kSecState = 3;

}  // namespace

IncrementalBc::IncrementalBc(graph::Graph base, IncrementalBcOptions options)
    : opts_(std::move(options)), graph_(normalize_rows(std::move(base))) {
  opts_.mrbc.collect_tables = true;
  const VertexId n = graph_.num_vertices();
  bc_.assign(n, 0.0);
  if (n == 0) return;
  const auto k = std::min<std::uint32_t>(std::max<std::uint32_t>(opts_.num_samples, 1), n);
  sources_ = graph::sample_sources(graph_, k, opts_.seed, /*contiguous=*/false);
  dist_.assign(sources_.size(), std::vector<std::uint32_t>(n, kInfDist));
  sigma_.assign(sources_.size(), std::vector<double>(n, 0.0));
  dep_.assign(sources_.size(), std::vector<double>(n, 0.0));
  std::vector<std::uint32_t> all(sources_.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  reexecute(all);
}

IncrementalBc::IncrementalBc(graph::Graph base, IncrementalBcOptions options, RestoreTag)
    : opts_(std::move(options)), graph_(normalize_rows(std::move(base))) {
  opts_.mrbc.collect_tables = true;
}

void IncrementalBc::save(const std::string& path) const {
  sim::SnapshotWriter w;
  util::SendBuffer& meta = w.section(kSecMeta);
  meta.write<std::uint64_t>(epoch_);
  meta.write<std::uint64_t>(graph_changes_);
  util::SendBuffer& g = w.section(kSecGraph);
  g.write_vector(graph_.out_offsets());
  g.write_vector(graph_.out_targets());
  util::SendBuffer& st = w.section(kSecState);
  st.write_vector(sources_);
  st.write_vector(bc_);
  sim::save_tables(st, dist_);
  sim::save_tables(st, sigma_);
  sim::save_tables(st, dep_);
  w.write_file(path);
}

IncrementalBc IncrementalBc::load(const std::string& path, IncrementalBcOptions options) {
  sim::SnapshotReader reader = sim::SnapshotReader::from_file(path);
  std::vector<graph::EdgeId> offsets;
  std::vector<VertexId> targets;
  reader.read(kSecGraph, "graph", [&](util::RecvBuffer& g) {
    offsets = g.read_vector<graph::EdgeId>();
    targets = g.read_vector<VertexId>();
    // Graph's constructor trusts its CSR; a malformed one would index out of
    // bounds while building the in-adjacency.
    const auto n = offsets.empty() ? 0 : offsets.size() - 1;
    if (offsets.empty() || offsets.front() != 0 || offsets.back() != targets.size() ||
        !std::is_sorted(offsets.begin(), offsets.end()) ||
        std::any_of(targets.begin(), targets.end(), [&](VertexId t) { return t >= n; })) {
      throw std::out_of_range("malformed CSR");
    }
  });
  IncrementalBc inc(graph::Graph(std::move(offsets), std::move(targets)), std::move(options),
                    RestoreTag{});
  reader.read(kSecMeta, "meta", [&](util::RecvBuffer& meta) {
    inc.epoch_ = meta.read<std::uint64_t>();
    inc.graph_changes_ = meta.read<std::uint64_t>();
  });
  const VertexId n = inc.graph_.num_vertices();
  reader.read(kSecState, "state", [&](util::RecvBuffer& st) {
    inc.sources_ = st.read_vector<VertexId>();
    if (std::any_of(inc.sources_.begin(), inc.sources_.end(),
                    [&](VertexId s) { return s >= n; })) {
      throw std::out_of_range("source id out of range");
    }
    inc.bc_ = st.read_vector<double>();
    sim::expect_size("bc", inc.bc_.size(), n);
    const std::size_t k = inc.sources_.size();
    sim::load_tables(st, inc.dist_, k, n);
    sim::load_tables(st, inc.sigma_, k, n);
    sim::load_tables(st, inc.dep_, k, n);
  });
  return inc;
}

const partition::Partition& IncrementalBc::partition() {
  if (partition_ == nullptr) {
    partition_ = std::make_unique<partition::Partition>(
        graph_, std::max<partition::HostId>(opts_.mrbc.num_hosts, 1), opts_.mrbc.policy);
  }
  return *partition_;
}

core::BcScores IncrementalBc::scaled_scores() const {
  core::BcScores scaled = bc_;
  if (!sources_.empty()) {
    const double scale =
        static_cast<double>(graph_.num_vertices()) / static_cast<double>(sources_.size());
    for (double& b : scaled) b *= scale;
  }
  return scaled;
}

sim::RunStats IncrementalBc::reexecute(const std::vector<std::uint32_t>& source_idxs) {
  if (source_idxs.empty()) return {};
  const VertexId n = graph_.num_vertices();
  // Subtract the stale contributions of every source being re-run (same
  // rule as BatchRunner::harvest: a vertex collects delta for v != s when
  // v was reachable).
  std::vector<VertexId> batch;
  batch.reserve(source_idxs.size());
  for (std::uint32_t sidx : source_idxs) {
    const VertexId s = sources_[sidx];
    for (VertexId v = 0; v < n; ++v) {
      if (v != s && dist_[sidx][v] != kInfDist) bc_[v] -= dep_[sidx][v];
    }
    batch.push_back(s);
  }
  core::MrbcRun run = core::mrbc_bc(partition(), batch, opts_.mrbc);
  assert(run.anomalies == 0);
  for (std::size_t i = 0; i < source_idxs.size(); ++i) {
    const std::uint32_t sidx = source_idxs[i];
    dist_[sidx] = std::move(run.result.dist[i]);
    sigma_[sidx] = std::move(run.result.sigma[i]);
    dep_[sidx] = std::move(run.result.delta[i]);
    const VertexId s = sources_[sidx];
    for (VertexId v = 0; v < n; ++v) {
      if (v != s && dist_[sidx][v] != kInfDist) bc_[v] += dep_[sidx][v];
    }
  }
  return run.total();
}

BatchReport IncrementalBc::apply(const EdgeBatch& batch) {
  BatchReport report;

  // 1. Epoch transition: the batch, in order, on the current CSR.
  AppliedBatch next = apply_batch(std::move(graph_), batch);
  graph_ = std::move(next.graph);
  const std::vector<EdgeOp>& applied = next.applied;
  report.epoch = ++epoch_;
  report.applied_ops = applied.size();
  if (applied.empty()) return report;
  ++graph_changes_;
  partition_.reset();
  if (sources_.empty()) return report;

  // 2. Affected-source detection against the retained (pre-batch) tables.
  obs::Span probe_span(obs::Category::kStream, "probe");
  std::vector<std::uint32_t> affected;
  for (std::uint32_t sidx = 0; sidx < sources_.size(); ++sidx) {
    const auto& d = dist_[sidx];
    for (const EdgeOp& op : applied) {
      const auto [u, v] = op.edge;
      bool hit;
      if (op.kind == EdgeOpKind::kInsert) {
        hit = d[u] != kInfDist && (d[v] == kInfDist || d[u] + 1 <= d[v]);
      } else {
        hit = d[u] != kInfDist && d[v] == d[u] + 1;
      }
      if (hit) {
        affected.push_back(sidx);
        break;
      }
    }
  }
  probe_span.close();
  report.affected_sources = affected.size();

  // 3. Re-run exactly what changed, on a partition of the next CSR.
  if (!affected.empty()) {
    obs::Span rerun_span(obs::Category::kStream, "rerun");
    report.reexec = reexecute(affected);
  }
  return report;
}

}  // namespace mrbc::stream
