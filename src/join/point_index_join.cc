#include "join/point_index_join.h"

#include <algorithm>

namespace dbsa::join {

PointIndex::PointIndex(const geom::Point* points, const double* attrs, size_t n,
                       const raster::Grid& grid, const Options& opts)
    : grid_(grid) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = grid_.LeafKey(points[i]);
  std::vector<double> values(n, 0.0);
  if (attrs != nullptr) values.assign(attrs, attrs + n);
  index_ = index::PrefixSumIndex::Build(std::move(keys), std::move(values));
  spline_ = index::RadixSpline::Build(index_.keys().keys(), opts.radix_bits,
                                      opts.spline_error);
  btree_ = index::StaticBTree::Build(index_.keys().keys());
}

PointIndex PointIndex::FromParts(const raster::Grid& grid,
                                 index::PrefixSumIndex index) {
  return FromParts(grid, std::move(index), Options{});
}

PointIndex PointIndex::FromParts(const raster::Grid& grid,
                                 index::PrefixSumIndex index,
                                 const Options& opts) {
  PointIndex idx(grid);
  idx.index_ = std::move(index);
  idx.spline_ = index::RadixSpline::Build(idx.index_.keys().keys(),
                                          opts.radix_bits, opts.spline_error);
  idx.btree_ = index::StaticBTree::Build(idx.index_.keys().keys());
  return idx;
}

size_t PointIndex::LowerBound(uint64_t key, SearchStrategy s) const {
  switch (s) {
    case SearchStrategy::kBinarySearch:
      return index_.keys().LowerBound(key);
    case SearchStrategy::kRadixSpline: {
      const index::SearchBound b = spline_.Lookup(key);
      size_t pos = index_.keys().LowerBoundFrom(key, b.begin, b.end);
      if (pos == b.end && pos < index_.size()) {
        // Duplicate run pushed the answer past the window (rare): finish
        // with an unbounded search from the window end.
        pos = index_.keys().LowerBoundFrom(key, pos, index_.size());
      }
      return pos;
    }
    case SearchStrategy::kBTree:
      return btree_.LowerBoundRank(key);
  }
  return 0;
}

size_t PointIndex::UpperBound(uint64_t key, SearchStrategy s) const {
  if (key == UINT64_MAX) return index_.size();
  return LowerBound(key + 1, s);
}

size_t PointIndex::GallopPast(uint64_t key, size_t from) const {
  const std::vector<uint64_t>& keys = index_.keys().keys();
  const size_t n = keys.size();
  // Invariant: every key in [from, begin) is <= key.
  size_t begin = from;
  size_t probe = from;
  for (size_t step = 1; probe < n && keys[probe] <= key; step *= 2) {
    begin = probe + 1;
    probe = begin + step;
  }
  return index_.keys().LowerBoundFrom(key + 1, begin, std::min(probe, n));
}

PositionRange PointIndex::CellPositions(const raster::CellId& cell,
                                        SearchStrategy strategy) const {
  return {LowerBound(cell.LeafKeyMin(), strategy),
          UpperBound(cell.LeafKeyMax(), strategy)};
}

CellAggregate PointIndex::QueryCells(const raster::HierarchicalRaster& hr,
                                     SearchStrategy strategy) const {
  return QueryCells(hr.cells().data(), hr.cells().size(), strategy);
}

CellAggregate PointIndex::QueryCells(const raster::HrCell* cells, size_t num_cells,
                                     SearchStrategy strategy) const {
  CellAggregate agg;
  agg.query_cells = num_cells;
  agg.searches = ForEachRun(
      cells, num_cells, strategy, /*split_on_flag=*/true,
      [&](PositionRange pos, bool boundary) {
        const double cnt = static_cast<double>(index_.CountBetween(pos.lo, pos.hi));
        const TwoDouble sum = index_.SumPairBetween(pos.lo, pos.hi);
        agg.count += cnt;
        const TwoDouble s = AddPair({agg.sum, agg.sum_comp}, sum);
        agg.sum = s.hi;
        agg.sum_comp = s.lo;
        if (boundary) {
          agg.boundary_count += cnt;
          const TwoDouble b =
              AddPair({agg.boundary_sum, agg.boundary_sum_comp}, sum);
          agg.boundary_sum = b.hi;
          agg.boundary_sum_comp = b.lo;
        }
      });
  return agg;
}

CellAggregate PointIndex::QueryCellRange(const raster::CellId& cell,
                                         SearchStrategy strategy) const {
  CellAggregate agg;
  const PositionRange pos = CellPositions(cell, strategy);
  agg.searches = 2;
  agg.query_cells = 1;
  agg.count = static_cast<double>(index_.CountBetween(pos.lo, pos.hi));
  const TwoDouble sum = index_.SumPairBetween(pos.lo, pos.hi);
  agg.sum = sum.hi;
  agg.sum_comp = sum.lo;
  return agg;
}

size_t PointIndex::SelectIds(const raster::HierarchicalRaster& hr,
                             SearchStrategy strategy,
                             std::vector<uint32_t>* out) const {
  return SelectIds(hr.cells().data(), hr.cells().size(), strategy, out);
}

size_t PointIndex::SelectIds(const raster::HrCell* cells, size_t num_cells,
                             SearchStrategy strategy,
                             std::vector<uint32_t>* out) const {
  const size_t before = out->size();
  ForEachRun(cells, num_cells, strategy, /*split_on_flag=*/false,
             [&](PositionRange pos, bool /*boundary*/) {
               index_.CollectIds(pos.lo, pos.hi, out);
             });
  return out->size() - before;
}

CellAggregate PointIndex::QueryPolygon(const geom::Polygon& poly, size_t cells_budget,
                                       SearchStrategy strategy) const {
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildBudget(poly, grid_, cells_budget);
  return QueryCells(hr, strategy);
}

size_t PointIndex::MemoryBytes(SearchStrategy strategy) const {
  size_t bytes = index_.MemoryBytes();
  switch (strategy) {
    case SearchStrategy::kBinarySearch:
      break;
    case SearchStrategy::kRadixSpline:
      bytes += spline_.MemoryBytes();
      break;
    case SearchStrategy::kBTree:
      bytes += btree_.MemoryBytes();
      break;
  }
  return bytes;
}

}  // namespace dbsa::join
