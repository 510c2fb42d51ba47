#include "matrix/dist_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/threading.h"
#include "util/timer.h"

namespace mrbc::matrix {

using graph::kInfDist;

namespace {

/// Balanced pairwise sum over a power-of-two-length span: the canonical
/// reduction-tree shape (see dist_engine.h header comment).
double pairwise_tree(const double* q, std::uint32_t len) {
  if (len == 1) return q[0];
  const std::uint32_t half = len / 2;
  return pairwise_tree(q, half) + pairwise_tree(q + half, half);
}

std::uint64_t cell_key(VertexId v, std::uint32_t sidx) {
  return (static_cast<std::uint64_t>(v) << 32) | sidx;
}

/// Times one host's sweep or merge into DistBcStep::host_seconds and, when
/// tracing, emits its host-compute span the way sim::BspLoop does, so the
/// spans sum to RunStats::per_host_compute_seconds. `round` is the caller's
/// obs context round, read before the work fans out to pool threads.
class HostComputeTimer {
 public:
  explicit HostComputeTimer(std::uint32_t round)
      : round_(round),
        tracing_(obs::tracing_enabled()),
        start_us_(tracing_ ? obs::Tracer::global().now_us() : 0.0) {}

  void stop(double& host_seconds, HostId host) const {
    const double seconds = timer_.seconds();
    host_seconds += seconds;
    if (tracing_) {
      obs::Tracer::global().emit(obs::Category::kCompute, "host-compute", host, round_, start_us_,
                                 seconds * 1e6);
    }
  }

 private:
  std::uint32_t round_;
  bool tracing_;
  double start_us_;
  util::Timer timer_;
};

}  // namespace

DistBcEngine::DistBcEngine(const Graph& g, const DistBcOptions& opts)
    : g_(&g),
      opts_(opts),
      grid_(ProcessGrid::make(std::max<HostId>(opts.num_hosts, 1), opts.replication)),
      mat_(g, grid_),
      net_(grid_.hosts),
      n_(g.num_vertices()) {
  net_.set_delivery(opts_.delivery);
  const HostId H = grid_.hosts;
  scratch_.resize(H);
  partials_.resize(H);
  staged_entries_.resize(H);
  staged_slices_.resize(static_cast<std::size_t>(H) * grid_.layers);
  delta_partials_.resize(H);
  staged_delta_.resize(H);
  group_changed_.resize(grid_.rows);
}

void DistBcEngine::begin_batch(const std::vector<VertexId>& batch) {
  batch_ = batch;
  k_ = batch.size();
  table_.assign(static_cast<std::size_t>(n_) * k_, DistSigma{});
  delta_.assign(static_cast<std::size_t>(n_) * k_, 0.0);
  max_level_ = 0;
  frontier_.clear();
  for (std::size_t sidx = 0; sidx < k_; ++sidx) {
    table_[static_cast<std::size_t>(batch[sidx]) * k_ + sidx] = {0, 1.0};
    frontier_.push_back({batch[sidx], static_cast<std::uint32_t>(sidx), {0, 1.0}});
  }
  std::sort(frontier_.begin(), frontier_.end(), [](const Entry& a, const Entry& b) {
    return cell_key(a.v, a.sidx) < cell_key(b.v, b.sidx);
  });
  const std::uint32_t ppl = grid_.panels_per_layer();
  for (HostId h = 0; h < grid_.hosts; ++h) {
    const std::size_t rk = static_cast<std::size_t>(grid_.row_size(grid_.row_of(h), n_)) * k_;
    scratch_[h].cells.assign(rk, DistSigma{});
    scratch_[h].mark.assign(rk, 0);
    scratch_[h].panels.assign(rk * ppl, 0.0);
    scratch_[h].touched.clear();
  }
}

std::vector<std::vector<util::SendBuffer>> DistBcEngine::make_buffers() const {
  return std::vector<std::vector<util::SendBuffer>>(grid_.hosts,
                                                    std::vector<util::SendBuffer>(grid_.hosts));
}

void DistBcEngine::write_entries(util::SendBuffer& buf, const Entry* entries,
                                 std::size_t count) const {
  comm::CodecWriter w(buf, opts_.delivery.codec);
  for (std::size_t i = 0; i < count; ++i) {
    w.value_u32(entries[i].v);
    w.value_u32(entries[i].sidx);
    w.value_u32(entries[i].val.dist);
    w.f64(entries[i].val.sigma);
  }
}

void DistBcEngine::read_entries(util::RecvBuffer& buf, std::vector<Entry>& out) const {
  comm::CodecReader r(buf, opts_.delivery.codec);
  while (buf.remaining() > 0) {
    Entry e;
    e.v = r.value_u32();
    e.sidx = r.value_u32();
    e.val.dist = r.value_u32();
    e.val.sigma = r.f64();
    out.push_back(e);
  }
}

std::vector<std::size_t> DistBcEngine::layer_slices(const Entry* list, std::size_t count) const {
  std::vector<std::size_t> slice(grid_.layers + 1, count);
  std::size_t i = 0;
  slice[0] = 0;
  for (HostId l = 0; l < grid_.layers; ++l) {
    while (i < count && grid_.vertex_layer(list[i].v, n_) == l) ++i;
    slice[l + 1] = i;
  }
  return slice;
}

void DistBcEngine::queue_column_broadcast(std::vector<std::vector<util::SendBuffer>>& buffers,
                                          HostId r, const Entry* base,
                                          const std::vector<std::size_t>& slices) const {
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  for (HostId l = 0; l < c; ++l) {
    const std::size_t len = slices[l + 1] - slices[l];
    if (len == 0) continue;
    for (HostId lp = 0; lp < c; ++lp) {
      const std::size_t cb = slices[l] + len * lp / c;
      const std::size_t ce = slices[l] + len * (lp + 1) / c;
      if (cb == ce) continue;
      const HostId sender = grid_.host_at(r, lp);
      for (HostId r2 = 0; r2 < pr; ++r2) {
        if (r2 == r) continue;
        write_entries(buffers[sender][grid_.host_at(r2, l)], base + cb, ce - cb);
      }
    }
  }
}

void DistBcEngine::stage_broadcast_chunk(HostId src, HostId dst, util::RecvBuffer& rbuf) {
  // One decoded copy per chunk: the designated receiver is the sender's
  // first peer row (every peer row gets identical bytes).
  const HostId r = grid_.row_of(src);
  if (grid_.row_of(dst) != (r == 0 ? 1 : 0)) return;
  read_entries(rbuf, staged_slices_[static_cast<std::size_t>(src) * grid_.layers +
                                    grid_.layer_of(dst)]);
}

void DistBcEngine::append_slice(std::vector<Entry>& out, HostId r, HostId l,
                                const Entry* local_base,
                                const std::vector<std::size_t>& local_slices) const {
  if (grid_.rows > 1) {
    for (HostId lp = 0; lp < grid_.layers; ++lp) {
      const std::vector<Entry>& chunk =
          staged_slices_[static_cast<std::size_t>(grid_.host_at(r, lp)) * grid_.layers + l];
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  } else {
    out.insert(out.end(), local_base + local_slices[l], local_base + local_slices[l + 1]);
  }
}

DistBcStep DistBcEngine::forward_step() {
  const HostId H = grid_.hosts;
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  const std::uint32_t round = obs::current_context().round;
  DistBcStep step;
  step.host_seconds.assign(H, 0.0);
  step.host_work.assign(H, 0.0);
  step.comm.bytes_per_host.assign(H, 0);
  step.comm.msgs_per_host.assign(H, 0);

  const std::vector<std::size_t> slice = layer_slices(frontier_.data(), frontier_.size());

  // ---- 1. per-host SpMSpV sweeps over (row, layer) tiles ----------------
  util::for_each_index(H, opts_.parallel_hosts, [&](std::size_t h) {
    const HostComputeTimer timer(round);
    const HostId r = grid_.row_of(static_cast<HostId>(h));
    const HostId l = grid_.layer_of(static_cast<HostId>(h));
    const Graph& tile = mat_.forward_tile(static_cast<HostId>(h));
    const VertexId rs = grid_.row_start(r, n_);
    HostScratch& s = scratch_[h];
    s.touched.clear();
    for (std::size_t i = slice[l]; i < slice[l + 1]; ++i) {
      const Entry& e = frontier_[i];
      const DistSigma cand{e.val.dist + 1, e.val.sigma};
      for (VertexId w : tile.out_neighbors(e.v)) {
        const std::size_t ci = static_cast<std::size_t>(w - rs) * k_ + e.sidx;
        step.host_work[h] += 1.0;
        if (!s.mark[ci]) {
          s.mark[ci] = 1;
          s.cells[ci] = cand;
          s.touched.emplace_back(w, e.sidx);
        } else {
          DistSigma& cur = s.cells[ci];
          if (cand.dist < cur.dist) {
            cur = cand;
          } else if (cand.dist == cur.dist) {
            cur.sigma += cand.sigma;
          }
        }
      }
    }
    std::sort(s.touched.begin(), s.touched.end());
    // Filter against the replica's table copy: a partial that cannot
    // improve the merged cell never reaches a wire (legal in the real
    // system — every group member holds the full row block).
    std::vector<Entry>& part = partials_[h];
    part.clear();
    for (const auto& [w, sidx] : s.touched) {
      const std::size_t ci = static_cast<std::size_t>(w - rs) * k_ + sidx;
      s.mark[ci] = 0;
      const DistSigma& p = s.cells[ci];
      if (p.dist <= table_[static_cast<std::size_t>(w) * k_ + sidx].dist) {
        part.push_back({w, sidx, p});
      }
    }
    timer.stop(step.host_seconds[h], static_cast<HostId>(h));
  });

  // ---- 2. replica-group all-reduce of partial products ------------------
  if (c > 1) {
    auto buffers = make_buffers();
    for (HostId h = 0; h < H; ++h) {
      if (partials_[h].empty()) continue;
      const HostId r = grid_.row_of(h);
      for (HostId l = 0; l < c; ++l) {
        const HostId peer = grid_.host_at(r, l);
        if (peer == h) continue;
        write_entries(buffers[h][peer], partials_[h].data(), partials_[h].size());
      }
    }
    for (auto& se : staged_entries_) se.clear();
    step.comm += net_.scatter(std::move(buffers),
                              [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
                                // Every group member merges an identical copy; the
                                // simulator decodes the one addressed to the leader
                                // and stages it for the shared merge below.
                                if (dst != grid_.group_leader(grid_.row_of(src))) return;
                                read_entries(rbuf, staged_entries_[src]);
                              });
  }

  // ---- 3. merge partials into group tables, collect changed cells -------
  std::vector<std::uint32_t> group_max(pr, 0);
  util::for_each_index(pr, opts_.parallel_hosts, [&](std::size_t r) {
    const HostComputeTimer timer(round);
    const VertexId rs = grid_.row_start(static_cast<HostId>(r), n_);
    HostScratch& s = scratch_[grid_.group_leader(static_cast<HostId>(r))];
    std::vector<Entry>& changed = group_changed_[r];
    changed.clear();
    for (HostId l = 0; l < c; ++l) {
      const HostId member = grid_.host_at(static_cast<HostId>(r), l);
      const std::vector<Entry>& part =
          (l == 0 || c == 1) ? partials_[member] : staged_entries_[member];
      for (const Entry& e : part) {
        DistSigma& cur = table_[static_cast<std::size_t>(e.v) * k_ + e.sidx];
        bool improved = false;
        if (e.val.dist < cur.dist) {
          cur = e.val;
          improved = true;
        } else if (e.val.dist == cur.dist) {
          cur.sigma += e.val.sigma;
          improved = true;
        }
        if (improved) {
          const std::size_t ci = static_cast<std::size_t>(e.v - rs) * k_ + e.sidx;
          if (!s.mark[ci]) {
            s.mark[ci] = 1;
            changed.push_back({e.v, e.sidx, {}});
          }
        }
      }
    }
    std::sort(changed.begin(), changed.end(), [](const Entry& a, const Entry& b) {
      return cell_key(a.v, a.sidx) < cell_key(b.v, b.sidx);
    });
    for (Entry& e : changed) {
      s.mark[static_cast<std::size_t>(e.v - rs) * k_ + e.sidx] = 0;
      e.val = table_[static_cast<std::size_t>(e.v) * k_ + e.sidx];
      group_max[r] = std::max(group_max[r], e.val.dist);
    }
    const HostId leader = grid_.group_leader(static_cast<HostId>(r));
    timer.stop(step.host_seconds[leader], leader);
  });
  for (HostId r = 0; r < pr; ++r) max_level_ = std::max(max_level_, group_max[r]);

  // ---- 4. broadcast changed cells along the layer dimension -------------
  std::vector<std::vector<std::size_t>> gslice(pr);
  {
    auto buffers = make_buffers();
    for (HostId r = 0; r < pr; ++r) {
      gslice[r] = layer_slices(group_changed_[r].data(), group_changed_[r].size());
      queue_column_broadcast(buffers, r, group_changed_[r].data(), gslice[r]);
    }
    for (auto& ss : staged_slices_) ss.clear();
    step.comm += net_.scatter(std::move(buffers),
                              [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
                                stage_broadcast_chunk(src, dst, rbuf);
                              });
  }

  // ---- assemble the next frontier (row-major, layer-minor = sorted) -----
  frontier_.clear();
  for (HostId r = 0; r < pr; ++r) {
    for (HostId l = 0; l < c; ++l) {
      append_slice(frontier_, r, l, group_changed_[r].data(), gslice[r]);
    }
  }
  step.frontier_entries = frontier_.size();
  return step;
}

DistBcStep DistBcEngine::backward_level(std::uint32_t level) {
  const HostId H = grid_.hosts;
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  const std::uint32_t round = obs::current_context().round;
  DistBcStep step;
  step.host_seconds.assign(H, 0.0);
  step.host_work.assign(H, 0.0);
  step.comm.bytes_per_host.assign(H, 0);
  step.comm.msgs_per_host.assign(H, 0);

  // ---- level frontier from the group tables (v-major, sidx-minor) -------
  bwd_frontier_.clear();
  for (VertexId v = 0; v < n_; ++v) {
    for (std::size_t sidx = 0; sidx < k_; ++sidx) {
      const DistSigma& t = table_[static_cast<std::size_t>(v) * k_ + sidx];
      if (t.dist == level) {
        bwd_frontier_.push_back(
            {v, static_cast<std::uint32_t>(sidx),
             {level, (1.0 + delta_[static_cast<std::size_t>(v) * k_ + sidx]) / t.sigma}});
      }
    }
  }
  step.frontier_entries = bwd_frontier_.size();

  // ---- 1. broadcast firing entries along the layer dimension ------------
  // The sorted frontier decomposes into contiguous per-row ranges
  // (vertex_row is monotone in v); each range column-broadcasts exactly
  // like the forward changed lists, with the send load split across the
  // owning group's c members.
  std::vector<std::size_t> row_range(pr + 1, bwd_frontier_.size());
  {
    std::size_t i = 0;
    row_range[0] = 0;
    for (HostId r = 0; r < pr; ++r) {
      while (i < bwd_frontier_.size() && grid_.vertex_row(bwd_frontier_[i].v, n_) == r) ++i;
      row_range[r + 1] = i;
    }
  }
  std::vector<std::vector<std::size_t>> rslice(pr);
  {
    auto buffers = make_buffers();
    for (HostId r = 0; r < pr; ++r) {
      const Entry* base = bwd_frontier_.data() + row_range[r];
      rslice[r] = layer_slices(base, row_range[r + 1] - row_range[r]);
      queue_column_broadcast(buffers, r, base, rslice[r]);
    }
    for (auto& ss : staged_slices_) ss.clear();
    step.comm += net_.scatter(std::move(buffers),
                              [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
                                stage_broadcast_chunk(src, dst, rbuf);
                              });
  }
  used_frontier_.clear();
  for (HostId r = 0; r < pr; ++r) {
    for (HostId l = 0; l < c; ++l) {
      append_slice(used_frontier_, r, l, bwd_frontier_.data() + row_range[r], rslice[r]);
    }
  }

  // ---- 2. per-host dependency sweeps into per-panel partials ------------
  const std::vector<std::size_t> slice = layer_slices(used_frontier_.data(), used_frontier_.size());
  const std::uint32_t ppl = grid_.panels_per_layer();
  // Warm the lazy backward tiles outside the timed parallel sweep so the
  // one-time build is not charged to whichever host's sweep triggers it.
  mat_.backward_tile(0);
  util::for_each_index(H, opts_.parallel_hosts, [&](std::size_t h) {
    const HostComputeTimer timer(round);
    const HostId r = grid_.row_of(static_cast<HostId>(h));
    const HostId l = grid_.layer_of(static_cast<HostId>(h));
    const Graph& tile = mat_.backward_tile(static_cast<HostId>(h));
    const VertexId rs = grid_.row_start(r, n_);
    const std::uint32_t first_panel = static_cast<std::uint32_t>(l) * ppl;
    HostScratch& s = scratch_[h];
    s.touched.clear();
    for (std::size_t i = slice[l]; i < slice[l + 1]; ++i) {
      const Entry& e = used_frontier_[i];
      const std::uint32_t pslot = ProcessGrid::panel_of(e.v, n_) - first_panel;
      for (VertexId u : tile.out_neighbors(e.v)) {
        step.host_work[h] += 1.0;
        const DistSigma& tu = table_[static_cast<std::size_t>(u) * k_ + e.sidx];
        if (tu.dist != kInfDist && tu.dist + 1 == e.val.dist) {
          const std::size_t ci = static_cast<std::size_t>(u - rs) * k_ + e.sidx;
          if (!s.mark[ci]) {
            s.mark[ci] = 1;
            s.touched.emplace_back(u, e.sidx);
            for (std::uint32_t p = 0; p < ppl; ++p) s.panels[ci * ppl + p] = 0.0;
          }
          s.panels[ci * ppl + pslot] += tu.sigma * e.val.sigma;
        }
      }
    }
    std::sort(s.touched.begin(), s.touched.end());
    std::vector<DeltaPartial>& dp = delta_partials_[h];
    dp.clear();
    for (const auto& [u, sidx] : s.touched) {
      const std::size_t ci = static_cast<std::size_t>(u - rs) * k_ + sidx;
      s.mark[ci] = 0;
      // The host's aligned panel subtree, reduced bottom-up; contributions
      // are strictly positive, so the partial is too.
      dp.push_back({u, sidx, pairwise_tree(&s.panels[ci * ppl], ppl)});
    }
    timer.stop(step.host_seconds[h], static_cast<HostId>(h));
  });

  // ---- 3. replica-group all-reduce of delta partials --------------------
  if (c > 1) {
    auto buffers = make_buffers();
    for (HostId h = 0; h < H; ++h) {
      if (delta_partials_[h].empty()) continue;
      const HostId r = grid_.row_of(h);
      for (HostId l = 0; l < c; ++l) {
        const HostId peer = grid_.host_at(r, l);
        if (peer == h) continue;
        comm::CodecWriter w(buffers[h][peer], opts_.delivery.codec);
        for (const DeltaPartial& d : delta_partials_[h]) {
          w.value_u32(d.v);
          w.value_u32(d.sidx);
          w.f64(d.value);
        }
      }
    }
    for (auto& sd : staged_delta_) sd.clear();
    step.comm += net_.scatter(std::move(buffers),
                              [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
                                if (dst != grid_.group_leader(grid_.row_of(src))) return;
                                comm::CodecReader r(rbuf, opts_.delivery.codec);
                                while (rbuf.remaining() > 0) {
                                  DeltaPartial d;
                                  d.v = r.value_u32();
                                  d.sidx = r.value_u32();
                                  d.value = r.f64();
                                  staged_delta_[src].push_back(d);
                                }
                              });
  }

  // ---- 4. merge: balanced cross-layer tree per cell ---------------------
  util::for_each_index(pr, opts_.parallel_hosts, [&](std::size_t r) {
    const HostComputeTimer timer(round);
    const std::vector<DeltaPartial>* lists[ProcessGrid::kColumnPanels];
    std::size_t idx[ProcessGrid::kColumnPanels] = {};
    for (HostId l = 0; l < c; ++l) {
      const HostId member = grid_.host_at(static_cast<HostId>(r), l);
      lists[l] = (l == 0 || c == 1) ? &delta_partials_[member] : &staged_delta_[member];
    }
    // c-way sorted merge; absent layers contribute +0.0 (bit-exact-neutral
    // for the positive partials), keeping the tree shape fixed.
    double q[ProcessGrid::kColumnPanels];
    for (;;) {
      std::uint64_t best = ~std::uint64_t{0};
      for (HostId l = 0; l < c; ++l) {
        if (idx[l] < lists[l]->size()) {
          const DeltaPartial& d = (*lists[l])[idx[l]];
          best = std::min(best, cell_key(d.v, d.sidx));
        }
      }
      if (best == ~std::uint64_t{0}) break;
      for (HostId l = 0; l < c; ++l) {
        q[l] = 0.0;
        if (idx[l] < lists[l]->size()) {
          const DeltaPartial& d = (*lists[l])[idx[l]];
          if (cell_key(d.v, d.sidx) == best) {
            q[l] = d.value;
            ++idx[l];
          }
        }
      }
      const VertexId v = static_cast<VertexId>(best >> 32);
      const std::uint32_t sidx = static_cast<std::uint32_t>(best);
      delta_[static_cast<std::size_t>(v) * k_ + sidx] += pairwise_tree(q, c);
    }
    const HostId leader = grid_.group_leader(static_cast<HostId>(r));
    timer.stop(step.host_seconds[leader], leader);
  });
  return step;
}

// DistSigma and Entry carry alignment padding between dist and sigma, so
// they are checkpointed field-by-field — a struct memcpy would leak
// indeterminate padding bytes into the stream and break checkpoint byte
// determinism (digests, dedup, MSan).
namespace {

constexpr std::size_t kDistSigmaWire = sizeof(std::uint32_t) + sizeof(double);
constexpr std::size_t kEntryWire = 2 * sizeof(std::uint32_t) + kDistSigmaWire;

void write_dist_sigma(util::SendBuffer& buf, const DistSigma& t) {
  buf.write<std::uint32_t>(t.dist);
  buf.write<double>(t.sigma);
}

DistSigma read_dist_sigma(util::RecvBuffer& buf) {
  DistSigma t;
  t.dist = buf.read<std::uint32_t>();
  t.sigma = buf.read<double>();
  return t;
}

}  // namespace

void DistBcEngine::save_state(util::SendBuffer& buf) const {
  buf.write<std::uint64_t>(k_);
  buf.write_vector(batch_);
  buf.reserve(buf.size() + table_.size() * kDistSigmaWire + delta_.size() * sizeof(double) +
              frontier_.size() * kEntryWire + 4 * sizeof(std::uint64_t));
  buf.write<std::uint64_t>(table_.size());
  for (const DistSigma& t : table_) write_dist_sigma(buf, t);
  buf.write_vector(delta_);
  buf.write<std::uint32_t>(max_level_);
  buf.write<std::uint64_t>(frontier_.size());
  for (const Entry& e : frontier_) {
    buf.write<std::uint32_t>(e.v);
    buf.write<std::uint32_t>(e.sidx);
    write_dist_sigma(buf, e.val);
  }
  net_.save_state(buf);
}

void DistBcEngine::restore_state(util::RecvBuffer& buf) {
  const std::uint64_t k = buf.read<std::uint64_t>();
  std::vector<VertexId> batch = buf.read_vector<VertexId>();
  if (k != batch.size()) {
    throw std::out_of_range("DistBcEngine: checkpoint batch width " + std::to_string(k) +
                            " does not match batch list size " + std::to_string(batch.size()));
  }
  // Reuse begin_batch for scratch sizing, then overwrite the live state.
  begin_batch(batch);
  const std::size_t cells = static_cast<std::size_t>(n_) * k_;
  const std::uint64_t table_cells = buf.read<std::uint64_t>();
  if (table_cells != cells) {
    throw std::out_of_range("DistBcEngine: checkpoint table has " + std::to_string(table_cells) +
                            " cells, expected " + std::to_string(cells));
  }
  for (DistSigma& t : table_) t = read_dist_sigma(buf);
  delta_ = buf.read_vector<double>();
  if (delta_.size() != cells) {
    throw std::out_of_range("DistBcEngine: checkpoint delta has " + std::to_string(delta_.size()) +
                            " cells, expected " + std::to_string(cells));
  }
  max_level_ = buf.read<std::uint32_t>();
  const std::uint64_t fn = buf.read<std::uint64_t>();
  if (fn > buf.remaining() / kEntryWire) {
    throw std::out_of_range("DistBcEngine: checkpoint frontier length " + std::to_string(fn) +
                            " exceeds " + std::to_string(buf.remaining()) + " remaining bytes");
  }
  frontier_.clear();
  frontier_.reserve(fn);
  for (std::uint64_t i = 0; i < fn; ++i) {
    Entry e;
    e.v = buf.read<std::uint32_t>();
    e.sidx = buf.read<std::uint32_t>();
    e.val = read_dist_sigma(buf);
    frontier_.push_back(e);
  }
  net_.restore_state(buf);
}

}  // namespace mrbc::matrix
