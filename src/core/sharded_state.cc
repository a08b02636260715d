#include "core/sharded_state.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <utility>

#include "sfc/hilbert.h"
#include "util/check.h"

namespace dbsa::core {

namespace {

/// Decomposes the Hilbert run [h_lo, h_hi] (positions at `hilbert_level`)
/// into maximal curve-aligned blocks. Each aligned block of 4^b positions
/// is — by the curve's hierarchical containment (sfc_test) — exactly the
/// descendant set of ONE quadtree cell at level (hilbert_level - b), so it
/// converts to one contiguous leaf-key interval. Returns the intervals
/// sorted and merged: the shard's point keys all lie inside them.
std::vector<std::pair<uint64_t, uint64_t>> HilbertRunToKeyRanges(
    uint64_t h_lo, uint64_t h_hi, int hilbert_level) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  uint64_t lo = h_lo;
  while (lo <= h_hi) {
    // Largest aligned block starting at lo that still fits in the run.
    int b = 0;
    while (b < hilbert_level) {
      const uint64_t size = uint64_t{1} << (2 * (b + 1));
      if (lo % size != 0 || lo + size - 1 > h_hi) break;
      ++b;
    }
    const int level = hilbert_level - b;
    uint32_t x = 0, y = 0;
    if (level > 0) {
      sfc::HilbertDecode(lo >> (2 * b), level, &x, &y);
    }
    const raster::CellId cell = raster::CellId::FromXY(level, x, y);
    ranges.emplace_back(cell.LeafKeyMin(), cell.LeafKeyMax());
    lo += uint64_t{1} << (2 * b);
    if (lo == 0) break;  // Wrapped (whole-curve run).
  }
  std::sort(ranges.begin(), ranges.end());
  // Merge adjacent/contiguous intervals to shrink the search list.
  std::vector<std::pair<uint64_t, uint64_t>> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && merged.back().second != UINT64_MAX &&
        merged.back().second + 1 >= r.first) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

}  // namespace

std::shared_ptr<const ShardedState> ShardedState::Build(
    std::shared_ptr<const EngineState> base, const ShardingOptions& options) {
  DBSA_CHECK(base != nullptr);
  std::shared_ptr<ShardedState> sharded(new ShardedState());
  sharded->base_ = std::move(base);
  const EngineState& b = *sharded->base_;
  const std::vector<geom::Point>& locs = b.points->locs;
  const size_t n = locs.size();
  const size_t k =
      n == 0 ? 1 : std::min(std::max<size_t>(options.num_shards, 1), n);
  const int hilbert_level =
      std::clamp(options.hilbert_level, 1, raster::CellId::kMaxLevel);
  sharded->hilbert_level_ = hilbert_level;
  // Shard counts silently clamp to the point count; a requested
  // only_slice must survive that clamp or shard(only_slice) would be an
  // out-of-bounds access on the caller's side.
  DBSA_CHECK(options.only_slice < 0 ||
             static_cast<size_t>(options.only_slice) < k);
  sharded->has_slices_ = options.build_slices && options.only_slice < 0;

  // Order the points along the Hilbert curve of the base grid at the
  // chosen level (ties — points in one curve cell — by row id, so every
  // shard slice is ascending in row id after the cut).
  std::vector<uint64_t> rank(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t ix = 0, iy = 0;
    b.grid.PointToXY(locs[i], hilbert_level, &ix, &iy);
    rank[i] = sfc::HilbertEncode(ix, iy, hilbert_level);
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b2) {
    return rank[a] != rank[b2] ? rank[a] < rank[b2] : a < b2;
  });

  sharded->shards_.resize(k);
  for (size_t s = 0; s < k; ++s) {
    Shard& shard = sharded->shards_[s];
    const size_t begin = n * s / k;
    const size_t end = n * (s + 1) / k;
    shard.global_ids.assign(order.begin() + begin, order.begin() + end);
    if (shard.global_ids.empty()) continue;
    // Curve run of this shard: [rank of first point, rank of last point]
    // in the (rank, id)-sorted order. Adjacent shards overlap in at most
    // the one curve cell a cut may split.
    shard.hilbert_lo = rank[order[begin]];
    shard.hilbert_hi = rank[order[end - 1]];
    shard.key_ranges =
        HilbertRunToKeyRanges(shard.hilbert_lo, shard.hilbert_hi, hilbert_level);
    std::sort(shard.global_ids.begin(), shard.global_ids.end());

    // Routing metadata (bounds + exact leaf-coordinate box) is always
    // built — pruning must behave identically on routing-only builds.
    for (const uint32_t id : shard.global_ids) {
      shard.bounds.Extend(b.points->locs[id]);
      uint32_t ix = 0, iy = 0;
      b.grid.PointToXY(b.points->locs[id], raster::CellId::kMaxLevel, &ix, &iy);
      shard.min_ix = std::min(shard.min_ix, ix);
      shard.min_iy = std::min(shard.min_iy, iy);
      shard.max_ix = std::max(shard.max_ix, ix);
      shard.max_iy = std::max(shard.max_iy, iy);
    }
    if (!options.build_slices) continue;  // Routing-only: no slice copy.
    if (options.only_slice >= 0 && static_cast<size_t>(options.only_slice) != s) {
      continue;  // Single-slice build: skip the other shards' copies.
    }

    // Attribute columns are copied all-or-nothing: a column is either
    // parallel to locs (copied row-for-row) or absent (left empty) — a
    // partially-filled base column would otherwise silently misalign the
    // shard's prefix sums against its points.
    const bool has_fare = b.points->fare.size() == n;
    const bool has_passengers = b.points->passengers.size() == n;
    const bool has_hour = b.points->hour.size() == n;
    auto slice = std::make_shared<data::PointSet>();
    slice->locs.reserve(shard.global_ids.size());
    if (has_fare) slice->fare.reserve(shard.global_ids.size());
    if (has_passengers) slice->passengers.reserve(shard.global_ids.size());
    if (has_hour) slice->hour.reserve(shard.global_ids.size());
    for (const uint32_t id : shard.global_ids) {
      slice->locs.push_back(b.points->locs[id]);
      if (has_fare) slice->fare.push_back(b.points->fare[id]);
      if (has_passengers) slice->passengers.push_back(b.points->passengers[id]);
      if (has_hour) slice->hour.push_back(b.points->hour[id]);
    }
    shard.state = BuildEngineState(std::move(slice), b.regions, &b.grid);
  }
  return sharded;
}

std::shared_ptr<const ShardedState> ShardedState::FromParts(
    std::shared_ptr<const EngineState> base, std::vector<Shard> shards,
    int hilbert_level, bool has_slices) {
  DBSA_CHECK(base != nullptr);
  DBSA_CHECK(!shards.empty());
  if (has_slices) {
    for (const Shard& shard : shards) {
      DBSA_CHECK(shard.state != nullptr || shard.global_ids.empty());
    }
  }
  std::shared_ptr<ShardedState> sharded(new ShardedState());
  sharded->base_ = std::move(base);
  sharded->shards_ = std::move(shards);
  sharded->hilbert_level_ = hilbert_level;
  sharded->has_slices_ = has_slices;
  return sharded;
}

std::vector<ShardedState::CellRoute> ShardedState::MakeRoutes(
    const raster::HrCell* cells, size_t num_cells) const {
  std::vector<CellRoute> routes(num_cells);
  for (size_t c = 0; c < num_cells; ++c) {
    CellRoute& route = routes[c];
    uint32_t cx = 0, cy = 0;
    cells[c].id.ToXY(&cx, &cy);
    const int leaf_shift = raster::CellId::kMaxLevel - cells[c].id.level();
    route.lo_x = cx << leaf_shift;
    route.lo_y = cy << leaf_shift;
    route.hi_x = ((cx + 1u) << leaf_shift) - 1u;
    route.hi_y = ((cy + 1u) << leaf_shift) - 1u;
    route.key_lo = cells[c].id.LeafKeyMin();
    route.key_hi = cells[c].id.LeafKeyMax();
  }
  return routes;
}

ShardedState::Scatter ShardedState::PlanScatter(
    const raster::HierarchicalRaster& hr, std::atomic<uint32_t>* touched) const {
  Scatter scatter;
  scatter.routes = MakeRoutes(hr.cells().data(), hr.cells().size());
  scatter.shards = SurvivingShards(scatter.routes.data(), scatter.routes.size());
  if (touched != nullptr) {
    for (const uint32_t s : scatter.shards) {
      touched[s].store(1, std::memory_order_relaxed);
    }
  }
  return scatter;
}

bool ShardedState::ShardIntersects(size_t s, const CellRoute* routes,
                                   size_t num_cells) const {
  const Shard& shard = shards_[s];
  // global_ids (not state): a routing-only build has no slice states but
  // must route identically to a full build.
  if (shard.global_ids.empty() || shard.min_ix > shard.max_ix) return false;
  // Merge-join: routes are in ascending key order (HR cells are sorted
  // and disjoint) and key_ranges are sorted disjoint intervals, so one
  // forward pass with ~3 integer compares per step decides every cell.
  const auto& ranges = shard.key_ranges;
  size_t ri = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const CellRoute& r = routes[c];
    while (ri < ranges.size() && ranges[ri].second < r.key_lo) ++ri;
    if (ri == ranges.size()) return false;
    if (ranges[ri].first <= r.key_hi && r.lo_x <= shard.max_ix &&
        r.hi_x >= shard.min_ix && r.lo_y <= shard.max_iy &&
        r.hi_y >= shard.min_iy) {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> ShardedState::SurvivingShards(const CellRoute* routes,
                                                    size_t num_cells) const {
  std::vector<uint32_t> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (ShardIntersects(s, routes, num_cells)) {
      out.push_back(static_cast<uint32_t>(s));
    }
  }
  return out;
}

std::vector<raster::HrCell> ShardedState::PruneCellsForShard(
    size_t s, const raster::HrCell* cells, const CellRoute* routes,
    size_t num_cells) const {
  std::vector<raster::HrCell> out;
  const Shard& shard = shards_[s];
  if (shard.global_ids.empty() || shard.min_ix > shard.max_ix) return out;
  // Merge-join over the sorted cell keys and the shard's sorted curve-run
  // intervals: curve-run test routes near-exclusively (only shards whose
  // run crosses the cell keep it), leaf-bounds test trims the run's
  // endpoint cells. Both integer-exact, so a cell containing a shard
  // point always survives for that shard.
  const auto& ranges = shard.key_ranges;
  size_t ri = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    const CellRoute& r = routes[c];
    while (ri < ranges.size() && ranges[ri].second < r.key_lo) ++ri;
    if (ri == ranges.size()) break;
    if (ranges[ri].first <= r.key_hi && r.lo_x <= shard.max_ix &&
        r.hi_x >= shard.min_ix && r.lo_y <= shard.max_iy &&
        r.hi_y >= shard.min_iy) {
      out.push_back(cells[c]);
    }
  }
  return out;
}

std::vector<raster::HrCell> ShardedState::PruneCellsForShard(
    size_t s, const raster::HrCell* cells, size_t num_cells) const {
  const std::vector<CellRoute> routes = MakeRoutes(cells, num_cells);
  return PruneCellsForShard(s, cells, routes.data(), num_cells);
}

size_t ShardedState::IndexBytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    if (shard.state != nullptr && shard.state->point_index.has_value()) {
      bytes +=
          shard.state->point_index->MemoryBytes(join::SearchStrategy::kRadixSpline);
    }
  }
  return bytes;
}

join::CellAggregate ShardedState::ProbeCells(const Probe& probe,
                                             const ExecHooks& hooks) const {
  // The in-process scatter needs slice states; a routing-only build
  // (socket clients) must go through ShardRouter instead.
  DBSA_CHECK(has_slices());
  const raster::HierarchicalRaster& hr = probe.hr;
  const Scatter scatter = PlanScatter(hr, probe.touched);
  // Each surviving shard answers its pruned cell subset from its local
  // index — in parallel when the cell volume warrants it.
  std::vector<join::CellAggregate> partials(scatter.shards.size());
  const auto one_shard = [&](size_t t) {
    const size_t s = scatter.shards[t];
    const std::vector<raster::HrCell> cells = PruneCellsForShard(
        s, hr.cells().data(), scatter.routes.data(), hr.cells().size());
    partials[t] = shards_[s].state->point_index->QueryCells(
        cells.data(), cells.size(), join::SearchStrategy::kRadixSpline);
  };
  if (hr.cells().size() >= kShardFanOutMinCells) {
    RunMaybeParallel(hooks, scatter.shards.size(), one_shard);
  } else {
    for (size_t t = 0; t < scatter.shards.size(); ++t) one_shard(t);
  }
  return GatherCells(partials);
}

std::vector<uint32_t> ShardedState::SelectIds(const Probe& probe,
                                              const ExecHooks& hooks,
                                              size_t* cells) const {
  DBSA_CHECK(has_slices());  // Routing-only builds: ShardRouter only.
  const raster::HierarchicalRaster& hr = probe.hr;
  const Scatter scatter = PlanScatter(hr, probe.touched);
  // Scatter: each surviving shard selects its local rows as a keyed run
  // of base-table ids.
  const size_t n = scatter.shards.size();
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> runs(n);
  std::vector<size_t> per_shard_cells(n, 0);
  RunMaybeParallel(hooks, n, [&](size_t t) {
    const Shard& shard = shards_[scatter.shards[t]];
    const std::vector<raster::HrCell> slice = PruneCellsForShard(
        scatter.shards[t], hr.cells().data(), scatter.routes.data(),
        hr.cells().size());
    per_shard_cells[t] = slice.size();
    runs[t] = SelectKeyedIds(*shard.state, shard.global_ids, slice.data(),
                             slice.size());
  });
  *cells = 0;
  for (const size_t c : per_shard_cells) *cells += c;
  return GatherIds(std::move(runs));
}

join::CellAggregate GatherCells(const std::vector<join::CellAggregate>& partials) {
  join::CellAggregate agg;
  for (const join::CellAggregate& partial : partials) agg.Merge(partial);
  return agg;
}

std::vector<uint32_t> GatherIds(
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> runs) {
  // The unsharded index emits ids in (leaf key, row id) order — disjoint
  // cells ascending, canonical tie-break inside each cell (see
  // PrefixSumIndex::Build). Shards partition the rows, so no pair occurs
  // in two runs, and merging the ascending runs pairwise restores that
  // order exactly.
  while (runs.size() > 1) {
    std::vector<std::vector<std::pair<uint64_t, uint32_t>>> merged;
    merged.reserve((runs.size() + 1) / 2);
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      std::vector<std::pair<uint64_t, uint32_t>> out(runs[r].size() +
                                                     runs[r + 1].size());
      std::merge(runs[r].begin(), runs[r].end(), runs[r + 1].begin(),
                 runs[r + 1].end(), out.begin());
      merged.push_back(std::move(out));
    }
    if (runs.size() % 2 == 1) merged.push_back(std::move(runs.back()));
    runs = std::move(merged);
  }
  std::vector<uint32_t> ids;
  if (runs.empty()) return ids;
  ids.reserve(runs[0].size());
  for (const auto& [key, id] : runs[0]) ids.push_back(id);
  return ids;
}

std::vector<std::pair<uint64_t, uint32_t>> SelectKeyedIds(
    const EngineState& slice, const std::vector<uint32_t>& global_ids,
    const raster::HrCell* cells, size_t num_cells) {
  DBSA_CHECK(slice.point_index.has_value());
  const join::PointIndex& point_index = *slice.point_index;
  // Position ranges first, so the output is sized once.
  std::vector<join::PositionRange> ranges;
  size_t total = 0;
  point_index.ForEachRun(cells, num_cells, join::SearchStrategy::kRadixSpline,
                         /*split_on_flag=*/false,
                         [&](join::PositionRange pos, bool /*boundary*/) {
                           if (pos.hi <= pos.lo) return;
                           ranges.push_back(pos);
                           total += pos.hi - pos.lo;
                         });
  // Each point's leaf key sits in the index's sorted key array at its
  // position: read in order, it needs neither the point nor the grid.
  const index::PrefixSumIndex& prefix = point_index.prefix_index();
  const std::vector<uint64_t>& keys = prefix.keys().keys();
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  keyed.reserve(total);
  for (const join::PositionRange& pos : ranges) {
    for (size_t i = pos.lo; i < pos.hi; ++i) {
      keyed.emplace_back(keys[i], global_ids[prefix.IdAt(i)]);
    }
  }
  return keyed;
}

}  // namespace dbsa::core
