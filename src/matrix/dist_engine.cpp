#include "matrix/dist_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/threading.h"

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

}  // namespace

DistBcEngine::DistBcEngine(const Graph& g, const DistBcOptions& opts)
    : opts_(opts),
      grid_(ProcessGrid::make(std::max<HostId>(opts.num_hosts, 1), opts.replication)),
      mat_(g, grid_),
      net_(grid_.hosts),
      n_(g.num_vertices()) {
  net_.set_delivery(opts_.cluster.delivery());
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
  level_ = 0;
  level_start_.clear();
  frontier_.clear();
  for (auto& p : partials_) p.clear();
  for (auto& dp : delta_partials_) dp.clear();
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
  comm::CodecWriter w(buf, opts_.cluster.codec);
  for (std::size_t i = 0; i < count; ++i) {
    w.value_u32(entries[i].v);
    w.value_u32(entries[i].sidx);
    w.value_u32(entries[i].val.dist);
    w.f64(entries[i].val.sigma);
  }
}

void DistBcEngine::read_entries(util::RecvBuffer& buf, std::vector<Entry>& out) const {
  comm::CodecReader r(buf, opts_.cluster.codec);
  while (buf.remaining() > 0) {
    Entry e;
    e.v = r.value_u32();
    e.sidx = r.value_u32();
    e.val.dist = r.value_u32();
    e.val.sigma = r.f64();
    out.push_back(e);
  }
}

void DistBcEngine::copy_to_group(std::vector<util::SendBuffer>& out, HostId h,
                                 HostId first) const {
  const HostId r = grid_.row_of(h);
  for (HostId l = 0; l < grid_.layers; ++l) {
    const HostId peer = grid_.host_at(r, l);
    if (peer != h && peer != first) out[peer] = out[first];
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
  if (pr < 2) return;  // no other row to send to
  for (HostId l = 0; l < c; ++l) {
    const std::size_t len = slices[l + 1] - slices[l];
    if (len == 0) continue;
    for (HostId lp = 0; lp < c; ++lp) {
      const std::size_t cb = slices[l] + len * lp / c;
      const std::size_t ce = slices[l] + len * (lp + 1) / c;
      if (cb == ce) continue;
      // Every peer row gets identical bytes: encode the chunk once, into the
      // first peer row's buffer, and copy it to the others.
      std::vector<util::SendBuffer>& out = buffers[grid_.host_at(r, lp)];
      const HostId first = r == 0 ? 1 : 0;
      write_entries(out[grid_.host_at(first, l)], base + cb, ce - cb);
      for (HostId r2 = first + 1; r2 < pr; ++r2) {
        if (r2 != r) out[grid_.host_at(r2, l)] = out[grid_.host_at(first, l)];
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

comm::SyncStats DistBcEngine::with_control_plane(comm::SyncStats stats) const {
  const std::size_t floor = static_cast<std::size_t>(grid_.layers - 1) + (grid_.rows - 1);
  stats.msgs_per_host.resize(grid_.hosts, 0);
  for (std::size_t& m : stats.msgs_per_host) m = std::max(m, floor);
  return stats;
}

comm::SyncStats DistBcEngine::forward_exchange() {
  const HostId H = grid_.hosts;
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  comm::SyncStats stats;
  // A batch's first round has no partials in flight: its frontier is the
  // seeded sources. Later rounds always have some, since the loop ends at
  // the first sweep that leaves none.
  const bool in_flight =
      std::any_of(partials_.begin(), partials_.end(), [](const auto& p) { return !p.empty(); });
  if (in_flight) {
    // ---- replica-group all-reduce of partial products -------------------
    if (c > 1) {
      auto buffers = make_buffers();
      for (HostId h = 0; h < H; ++h) {
        if (partials_[h].empty()) continue;
        const HostId r = grid_.row_of(h);
        const HostId first = grid_.host_at(r, grid_.layer_of(h) == 0 ? 1 : 0);
        write_entries(buffers[h][first], partials_[h].data(), partials_[h].size());
        copy_to_group(buffers[h], h, first);
      }
      for (auto& se : staged_entries_) se.clear();
      stats += net_.scatter(std::move(buffers),
                            [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
                              // Every group member merges an identical copy; the
                              // simulator decodes the one addressed to the leader
                              // and stages it for the shared merge below.
                              if (dst != grid_.group_leader(grid_.row_of(src))) return;
                              read_entries(rbuf, staged_entries_[src]);
                            });
    }

    // ---- merge partials into group tables, collect changed cells --------
    std::vector<std::uint32_t> group_max(pr, 0);
    {
      const obs::Span span(obs::Category::kComm, "reduce");
      util::for_each_index(pr, opts_.cluster.parallel_hosts, [&](std::size_t r) {
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
      });
      for (HostId r = 0; r < pr; ++r) max_level_ = std::max(max_level_, group_max[r]);
      for (auto& p : partials_) p.clear();
    }

    // ---- broadcast changed cells along the layer dimension --------------
    std::vector<std::vector<std::size_t>> gslice(pr);
    auto buffers = make_buffers();
    {
      const obs::Span span(obs::Category::kComm, "broadcast");
      for (HostId r = 0; r < pr; ++r) {
        gslice[r] = layer_slices(group_changed_[r].data(), group_changed_[r].size());
        queue_column_broadcast(buffers, r, group_changed_[r].data(), gslice[r]);
      }
      for (auto& ss : staged_slices_) ss.clear();
    }
    stats += net_.scatter(std::move(buffers), [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
      stage_broadcast_chunk(src, dst, rbuf);
    });

    // ---- assemble the next frontier (row-major, layer-minor = sorted) ---
    const obs::Span span(obs::Category::kComm, "broadcast");
    frontier_.clear();
    for (HostId r = 0; r < pr; ++r) {
      for (HostId l = 0; l < c; ++l) {
        append_slice(frontier_, r, l, group_changed_[r].data(), gslice[r]);
      }
    }
  }
  sweep_slices_ = layer_slices(frontier_.data(), frontier_.size());
  return with_control_plane(std::move(stats));
}

sim::HostWork DistBcEngine::forward_sweep(HostId h) {
  const HostId r = grid_.row_of(h);
  const HostId l = grid_.layer_of(h);
  const Graph& tile = mat_.forward_tile(h);
  const VertexId rs = grid_.row_start(r, n_);
  HostScratch& s = scratch_[h];
  sim::HostWork work;
  s.touched.clear();
  for (std::size_t i = sweep_slices_[l]; i < sweep_slices_[l + 1]; ++i) {
    const Entry& e = frontier_[i];
    const DistSigma cand{e.val.dist + 1, e.val.sigma};
    for (VertexId w : tile.out_neighbors(e.v)) {
      const std::size_t ci = static_cast<std::size_t>(w - rs) * k_ + e.sidx;
      ++work.work_items;
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
  // Filter against the replica's table copy: a partial that cannot improve
  // the merged cell never reaches a wire (legal in the real system — every
  // group member holds the full row block).
  std::vector<Entry>& part = partials_[h];
  for (const auto& [w, sidx] : s.touched) {
    const std::size_t ci = static_cast<std::size_t>(w - rs) * k_ + sidx;
    s.mark[ci] = 0;
    const DistSigma& p = s.cells[ci];
    if (p.dist <= table_[static_cast<std::size_t>(w) * k_ + sidx].dist) {
      part.push_back({w, sidx, p});
    }
  }
  work.active = !part.empty();
  return work;
}

void DistBcEngine::build_level_index() {
  level_start_.assign(static_cast<std::size_t>(max_level_) + 2, 0);
  for (const DistSigma& t : table_) {
    if (t.dist >= 1 && t.dist <= max_level_) ++level_start_[t.dist + 1];
  }
  for (std::size_t d = 1; d < level_start_.size(); ++d) level_start_[d] += level_start_[d - 1];
  level_cells_.resize(level_start_.back());
  std::vector<std::size_t> next(level_start_.begin(), level_start_.end() - 1);
  for (VertexId v = 0; v < n_; ++v) {
    for (std::uint32_t sidx = 0; sidx < k_; ++sidx) {
      const std::uint32_t d = table_[static_cast<std::size_t>(v) * k_ + sidx].dist;
      if (d >= 1 && d <= max_level_) level_cells_[next[d]++] = {v, sidx};
    }
  }
}

void DistBcEngine::begin_backward() {
  level_ = max_level_;
  frontier_.clear();
}

comm::SyncStats DistBcEngine::backward_exchange() {
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  comm::SyncStats stats = reduce_delta_partials();

  // ---- level frontier from the level index (v-major, sidx-minor) --------
  // The sorted frontier decomposes into contiguous per-row ranges
  // (vertex_row is monotone in v); each range column-broadcasts exactly
  // like the forward changed lists, with the send load split across the
  // owning group's c members.
  std::vector<std::size_t> row_range(pr + 1);
  std::vector<std::vector<std::size_t>> rslice(pr);
  auto buffers = make_buffers();
  {
    const obs::Span span(obs::Category::kComm, "broadcast");
    if (level_start_.empty()) build_level_index();
    bwd_frontier_.clear();
    for (std::size_t i = level_start_[level_]; i < level_start_[level_ + 1]; ++i) {
      const auto [v, sidx] = level_cells_[i];
      const std::size_t ci = static_cast<std::size_t>(v) * k_ + sidx;
      bwd_frontier_.push_back({v, sidx, {level_, (1.0 + delta_[ci]) / table_[ci].sigma}});
    }
    std::size_t i = 0;
    for (HostId r = 0; r < pr; ++r) {
      row_range[r] = i;
      while (i < bwd_frontier_.size() && grid_.vertex_row(bwd_frontier_[i].v, n_) == r) ++i;
    }
    row_range[pr] = i;
    for (HostId r = 0; r < pr; ++r) {
      const Entry* base = bwd_frontier_.data() + row_range[r];
      rslice[r] = layer_slices(base, row_range[r + 1] - row_range[r]);
      queue_column_broadcast(buffers, r, base, rslice[r]);
    }
    for (auto& ss : staged_slices_) ss.clear();
  }
  stats += net_.scatter(std::move(buffers), [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
    stage_broadcast_chunk(src, dst, rbuf);
  });

  const obs::Span span(obs::Category::kComm, "broadcast");
  used_frontier_.clear();
  for (HostId r = 0; r < pr; ++r) {
    for (HostId l = 0; l < c; ++l) {
      append_slice(used_frontier_, r, l, bwd_frontier_.data() + row_range[r], rslice[r]);
    }
  }
  sweep_slices_ = layer_slices(used_frontier_.data(), used_frontier_.size());
  --level_;
  return with_control_plane(std::move(stats));
}

sim::HostWork DistBcEngine::backward_sweep(HostId h) {
  const std::uint32_t ppl = grid_.panels_per_layer();
  const HostId r = grid_.row_of(h);
  const HostId l = grid_.layer_of(h);
  const Graph& tile = mat_.backward_tile(h);
  const VertexId rs = grid_.row_start(r, n_);
  const std::uint32_t first_panel = static_cast<std::uint32_t>(l) * ppl;
  HostScratch& s = scratch_[h];
  sim::HostWork work;
  s.touched.clear();
  for (std::size_t i = sweep_slices_[l]; i < sweep_slices_[l + 1]; ++i) {
    const Entry& e = used_frontier_[i];
    const std::uint32_t pslot = ProcessGrid::panel_of(e.v, n_) - first_panel;
    for (VertexId u : tile.out_neighbors(e.v)) {
      ++work.work_items;
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
  for (const auto& [u, sidx] : s.touched) {
    const std::size_t ci = static_cast<std::size_t>(u - rs) * k_ + sidx;
    s.mark[ci] = 0;
    // The host's aligned panel subtree, reduced bottom-up; contributions
    // are strictly positive, so the partial is too.
    dp.push_back({u, sidx, pairwise_tree(&s.panels[ci * ppl], ppl)});
  }
  work.active = level_ >= 1;
  return work;
}

comm::SyncStats DistBcEngine::reduce_delta_partials() {
  const HostId H = grid_.hosts;
  const HostId pr = grid_.rows;
  const HostId c = grid_.layers;
  comm::SyncStats stats;

  // ---- replica-group all-reduce of delta partials -----------------------
  if (c > 1) {
    auto buffers = make_buffers();
    for (HostId h = 0; h < H; ++h) {
      if (delta_partials_[h].empty()) continue;
      const HostId r = grid_.row_of(h);
      const HostId first = grid_.host_at(r, grid_.layer_of(h) == 0 ? 1 : 0);
      comm::CodecWriter w(buffers[h][first], opts_.cluster.codec);
      for (const DeltaPartial& d : delta_partials_[h]) {
        w.value_u32(d.v);
        w.value_u32(d.sidx);
        w.f64(d.value);
      }
      copy_to_group(buffers[h], h, first);
    }
    for (auto& sd : staged_delta_) sd.clear();
    stats += net_.scatter(std::move(buffers), [&](HostId src, HostId dst, util::RecvBuffer& rbuf) {
      if (dst != grid_.group_leader(grid_.row_of(src))) return;
      comm::CodecReader r(rbuf, opts_.cluster.codec);
      while (rbuf.remaining() > 0) {
        DeltaPartial d;
        d.v = r.value_u32();
        d.sidx = r.value_u32();
        d.value = r.f64();
        staged_delta_[src].push_back(d);
      }
    });
  }

  // ---- merge: balanced cross-layer tree per cell ------------------------
  const obs::Span span(obs::Category::kComm, "reduce");
  util::for_each_index(pr, opts_.cluster.parallel_hosts, [&](std::size_t r) {
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
  });
  for (auto& dp : delta_partials_) dp.clear();
  return stats;
}

// DistSigma and Entry carry alignment padding between dist and sigma, so
// they are checkpointed field-by-field — a struct memcpy would leak
// indeterminate padding bytes into the stream and break checkpoint byte
// determinism (digests, dedup, MSan). DeltaPartial has no padding and
// checkpoints as a packed array.
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

void DistBcEngine::save_checkpoint(util::SendBuffer& buf) const {
  static_assert(sizeof(DeltaPartial) == 2 * sizeof(std::uint32_t) + sizeof(double));
  const auto write_list = [&](const std::vector<Entry>& list) {
    buf.write<std::uint64_t>(list.size());
    for (const Entry& e : list) {
      buf.write<std::uint32_t>(e.v);
      buf.write<std::uint32_t>(e.sidx);
      write_dist_sigma(buf, e.val);
    }
  };
  buf.write<std::uint64_t>(k_);
  buf.write_vector(batch_);
  buf.reserve(buf.size() + table_.size() * kDistSigmaWire + delta_.size() * sizeof(double) +
              frontier_.size() * kEntryWire + 4 * sizeof(std::uint64_t));
  buf.write<std::uint64_t>(table_.size());
  for (const DistSigma& t : table_) write_dist_sigma(buf, t);
  buf.write_vector(delta_);
  buf.write<std::uint32_t>(max_level_);
  buf.write<std::uint32_t>(level_);
  write_list(frontier_);
  for (const std::vector<Entry>& p : partials_) write_list(p);
  for (const std::vector<DeltaPartial>& dp : delta_partials_) buf.write_vector(dp);
  net_.save_state(buf);
}

void DistBcEngine::restore_checkpoint(util::RecvBuffer& buf) {
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
  level_ = buf.read<std::uint32_t>();
  if (level_ > max_level_) {
    throw std::out_of_range("DistBcEngine: checkpoint level cursor " + std::to_string(level_) +
                            " exceeds max level " + std::to_string(max_level_));
  }
  const auto read_list = [&](std::vector<Entry>& list) {
    const std::uint64_t count = buf.read<std::uint64_t>();
    if (count > buf.remaining() / kEntryWire) {
      throw std::out_of_range("DistBcEngine: checkpoint list length " + std::to_string(count) +
                              " exceeds " + std::to_string(buf.remaining()) + " remaining bytes");
    }
    list.clear();
    list.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      Entry e;
      e.v = buf.read<std::uint32_t>();
      e.sidx = buf.read<std::uint32_t>();
      e.val = read_dist_sigma(buf);
      list.push_back(e);
    }
  };
  read_list(frontier_);
  for (std::vector<Entry>& p : partials_) read_list(p);
  for (std::vector<DeltaPartial>& dp : delta_partials_) dp = buf.read_vector<DeltaPartial>();
  net_.restore_state(buf);
}

}  // namespace mrbc::matrix
