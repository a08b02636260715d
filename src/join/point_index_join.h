// Section 3's point-indexing pipeline: points are linearized to finest-
// level cell keys and stored sorted with prefix sums; a query polygon is
// approximated by hierarchical-raster query cells; each query cell turns
// into one contiguous key range. The probe walks the cells by runs: HR
// cells are Z-ordered, so a cell often starts where its predecessor ends,
// and a run of such cells is one key range, answered by at most one seek
// and one forward gallop. The seek strategy is pluggable — binary search,
// RadixSpline (learned) or a B+-tree — which is exactly the comparison of
// Figure 4.

#ifndef DBSA_JOIN_POINT_INDEX_JOIN_H_
#define DBSA_JOIN_POINT_INDEX_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "index/btree.h"
#include "index/radix_spline.h"
#include "index/sorted_array.h"
#include "join/agg.h"
#include "raster/grid.h"
#include "raster/hierarchical_raster.h"
#include "util/compensated.h"

namespace dbsa::join {

/// Which structure answers the lower/upper-bound searches.
enum class SearchStrategy { kBinarySearch, kRadixSpline, kBTree };

/// Aggregates returned for one query polygon. SUMs are carried as
/// Neumaier-compensated (error-free transformation) pairs — (sum,
/// sum_comp) is the unevaluated double-double total — so accumulating
/// per-cell range sums and merging shard partials never rounds: as long
/// as the running totals fit the pair's ~106-bit window (any realistic
/// attribute column), the merged total is EXACT and therefore identical
/// under every association order. This is what makes the sharded
/// byte-identity contract of core/sharded_state.h hold for non-dyadic
/// attributes, not just dyadic ones. Read totals through SumValue() /
/// BoundarySumValue(), never `sum` alone.
struct CellAggregate {
  double count = 0.0;
  double sum = 0.0;             ///< Leading part of the compensated SUM.
  double sum_comp = 0.0;        ///< Trailing (compensation) part.
  double boundary_count = 0.0;  ///< Partial restricted to boundary cells.
  double boundary_sum = 0.0;
  double boundary_sum_comp = 0.0;
  size_t query_cells = 0;
  /// Searches the probe made: strategy seeks plus forward gallops, one
  /// gallop per run of key-adjacent cells (PointIndex::ForEachRun). At
  /// most two per query cell, and fewer whenever cells form runs.
  size_t searches = 0;

  double SumValue() const { return TwoDouble{sum, sum_comp}.Rounded(); }
  double BoundarySumValue() const {
    return TwoDouble{boundary_sum, boundary_sum_comp}.Rounded();
  }

  /// Folds another partial into this one (multi-part regions, shard
  /// gathers). Counts are exact integers; sums merge pairwise through
  /// error-free transformations (see struct comment).
  void Merge(const CellAggregate& other) {
    count += other.count;
    boundary_count += other.boundary_count;
    const TwoDouble s = AddPair({sum, sum_comp}, {other.sum, other.sum_comp});
    sum = s.hi;
    sum_comp = s.lo;
    const TwoDouble b = AddPair({boundary_sum, boundary_sum_comp},
                                {other.boundary_sum, other.boundary_sum_comp});
    boundary_sum = b.hi;
    boundary_sum_comp = b.lo;
    query_cells += other.query_cells;
    searches += other.searches;
  }
};

/// Sorted index positions [lo, hi) of the points one cell covers.
struct PositionRange {
  size_t lo = 0;
  size_t hi = 0;
};

/// Sorted linearized point index with prefix-sum aggregates and three
/// interchangeable search strategies.
class PointIndex {
 public:
  struct Options {
    int radix_bits = 18;       ///< Paper: 25 at 1.2B keys; scale with data.
    size_t spline_error = 32;  ///< Paper: 32.
  };

  PointIndex(const geom::Point* points, const double* attrs, size_t n,
             const raster::Grid& grid, const Options& opts);
  PointIndex(const geom::Point* points, const double* attrs, size_t n,
             const raster::Grid& grid)
      : PointIndex(points, attrs, n, grid, Options{}) {}

  /// Reassembles an index from a frozen PrefixSumIndex (snapshot load,
  /// src/snapshot/). The spline and B+-tree are deterministic functions
  /// of the sorted key array, so they are REBUILT here rather than
  /// serialized — byte-identity of query answers needs the keys, prefix
  /// pairs and id permutation exactly, nothing more. `grid` must be the
  /// grid the keys were linearized against.
  static PointIndex FromParts(const raster::Grid& grid,
                              index::PrefixSumIndex index, const Options& opts);
  static PointIndex FromParts(const raster::Grid& grid,
                              index::PrefixSumIndex index);

  /// Answers a query polygon given its precomputed HR approximation.
  CellAggregate QueryCells(const raster::HierarchicalRaster& hr,
                           SearchStrategy strategy) const;

  /// Same, over an explicit cell subset — the scatter half of sharded
  /// execution, where each shard answers only the query cells that
  /// intersect its bounds (core/sharded_state.h).
  CellAggregate QueryCells(const raster::HrCell* cells, size_t num_cells,
                           SearchStrategy strategy) const;

  /// Convenience: approximates the polygon with a budget-driven HR first.
  CellAggregate QueryPolygon(const geom::Polygon& poly, size_t cells_budget,
                             SearchStrategy strategy) const;

  /// Positions in prefix_index() of the points inside `cell`, found by
  /// two independent searches under `strategy`. The probes themselves
  /// (QueryCells, SelectIds, the exact refine) walk cells by runs through
  /// ForEachRun, which yields the same positions with fewer searches.
  PositionRange CellPositions(const raster::CellId& cell,
                              SearchStrategy strategy) const;

  /// The probe's run walk. Splits `cells` into runs: maximal stretches in
  /// which each cell's LeafKeyMin() is the previous cell's LeafKeyMax() + 1
  /// and, when `split_on_flag`, whose cells share one boundary flag. A
  /// run's points fill one position range, so `fn(PositionRange pos, bool
  /// boundary)` is called once per run, in input order, with the flag of
  /// the run's first cell. A run that starts where the previous run ended
  /// takes that run's upper position as its lower one; any other run start
  /// is one seek under `strategy`. The upper position gallops forward from
  /// the lower one. Each range equals the union of its cells'
  /// CellPositions whatever order the cells arrive in (wire input is not
  /// checked for order). Returns the searches made: seeks plus gallops.
  template <typename Fn>
  size_t ForEachRun(const raster::HrCell* cells, size_t num_cells,
                    SearchStrategy strategy, bool split_on_flag, Fn&& fn) const;

  /// Aggregates over a single cell's key range (micro-bench / building
  /// block for custom query shapes).
  CellAggregate QueryCellRange(const raster::CellId& cell,
                               SearchStrategy strategy) const;

  /// Approximate SELECTION: ids of all points covered by the query
  /// approximation (no exact tests; epsilon semantics as usual). Appends
  /// to `out`; returns the number of ids added.
  size_t SelectIds(const raster::HierarchicalRaster& hr, SearchStrategy strategy,
                   std::vector<uint32_t>* out) const;

  /// Selection over an explicit cell subset (sharded execution).
  size_t SelectIds(const raster::HrCell* cells, size_t num_cells,
                   SearchStrategy strategy, std::vector<uint32_t>* out) const;

  const raster::Grid& grid() const { return grid_; }
  size_t size() const { return index_.size(); }
  /// Frozen representation, exposed for serialization (src/snapshot/):
  /// together with grid() this fully determines the index — FromParts
  /// rebuilds the spline and B+-tree from it bit-identically.
  const index::PrefixSumIndex& prefix_index() const { return index_; }
  size_t MemoryBytes(SearchStrategy strategy) const;

 private:
  /// FromParts backdoor: members are assigned after construction.
  explicit PointIndex(const raster::Grid& grid) : grid_(grid) {}

  // Positions of the first key >= key under the chosen strategy.
  size_t LowerBound(uint64_t key, SearchStrategy s) const;
  size_t UpperBound(uint64_t key, SearchStrategy s) const;
  // Position of the first key > `key` (a leaf key, so `key + 1` cannot
  // wrap) at or after `from`, whose predecessors must all be <= key:
  // doubling steps from `from`, then a binary search of the last step's
  // interval.
  size_t GallopPast(uint64_t key, size_t from) const;

  raster::Grid grid_;
  index::PrefixSumIndex index_;
  index::RadixSpline spline_;
  index::StaticBTree btree_;
};

template <typename Fn>
size_t PointIndex::ForEachRun(const raster::HrCell* cells, size_t num_cells,
                              SearchStrategy strategy, bool split_on_flag,
                              Fn&& fn) const {
  // Leaf keys have 2 * CellId::kMaxLevel bits (the wire decoder rejects
  // any other id), so `a_max + 1` cannot wrap.
  const auto follows = [](uint64_t a_max, uint64_t b_min) { return b_min == a_max + 1; };
  size_t searches = 0;
  size_t prev_hi = 0;
  uint64_t prev_max = 0;
  size_t c = 0;
  while (c < num_cells) {
    const size_t start = c;
    const raster::HrCell& first = cells[start];
    const uint64_t key_min = first.id.LeafKeyMin();
    uint64_t key_max = first.id.LeafKeyMax();
    for (++c; c < num_cells && follows(key_max, cells[c].id.LeafKeyMin()) &&
              (!split_on_flag || cells[c].boundary == first.boundary);
         ++c) {
      key_max = cells[c].id.LeafKeyMax();
    }
    size_t lo = prev_hi;
    if (start == 0 || !follows(prev_max, key_min)) {
      lo = LowerBound(key_min, strategy);
      ++searches;
    }
    const size_t hi = GallopPast(key_max, lo);
    ++searches;
    fn(PositionRange{lo, hi}, first.boundary);
    prev_hi = hi;
    prev_max = key_max;
  }
  return searches;
}

}  // namespace dbsa::join

#endif  // DBSA_JOIN_POINT_INDEX_JOIN_H_
