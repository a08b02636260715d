// Tests for the Section 3 point-indexing pipeline: all three search
// strategies return identical aggregates; the run walk answers exactly as
// two searches per cell do; conservative query cells give counts >= exact;
// result ranges always contain the exact answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>

#include "join/point_index_join.h"
#include "join/result_range.h"
#include "test_util.h"

namespace dbsa::join {
namespace {

struct PiSetup {
  raster::Grid grid{{0, 0}, 512.0};
  std::vector<geom::Point> pts;
  std::vector<double> attrs;
};

PiSetup MakeSetup(size_t n, uint64_t seed) {
  PiSetup s;
  s.pts = dbsa::testing::RandomPoints(geom::Box(5, 5, 507, 507), n, seed);
  Rng rng(seed + 1);
  for (size_t i = 0; i < n; ++i) s.attrs.push_back(rng.Uniform(0, 2));
  return s;
}

/// The six doubles of `got` carry the same bits as `want`'s.
void ExpectSameBits(const CellAggregate& want, const CellAggregate& got,
                    const std::string& where) {
  const struct {
    const char* name;
    double CellAggregate::*field;
  } kFields[] = {{"count", &CellAggregate::count},
                 {"sum", &CellAggregate::sum},
                 {"sum_comp", &CellAggregate::sum_comp},
                 {"boundary_count", &CellAggregate::boundary_count},
                 {"boundary_sum", &CellAggregate::boundary_sum},
                 {"boundary_sum_comp", &CellAggregate::boundary_sum_comp}};
  for (const auto& f : kFields) {
    EXPECT_EQ(std::memcmp(&(want.*f.field), &(got.*f.field), sizeof(double)), 0)
        << where << " " << f.name << ": " << want.*f.field << " vs " << got.*f.field;
  }
}

TEST(PointIndexTest, StrategiesAgree) {
  const PiSetup s = MakeSetup(20000, 1);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, seed);
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 4.0);
    const CellAggregate bs = index.QueryCells(hr, SearchStrategy::kBinarySearch);
    const CellAggregate rs = index.QueryCells(hr, SearchStrategy::kRadixSpline);
    const CellAggregate bt = index.QueryCells(hr, SearchStrategy::kBTree);
    // The compensated pairs are exact, so every strategy's bits agree.
    ExpectSameBits(bs, rs, "RS seed " + std::to_string(seed));
    ExpectSameBits(bs, bt, "B+tree seed " + std::to_string(seed));
    ASSERT_EQ(bs.query_cells, rs.query_cells);
    ASSERT_EQ(bs.query_cells, bt.query_cells);
  }
}

/// The probe before the run walk: two independent searches per cell.
CellAggregate PerCellAggregate(const PointIndex& index,
                               const std::vector<raster::HrCell>& cells,
                               SearchStrategy strategy) {
  CellAggregate agg;
  for (const raster::HrCell& cell : cells) {
    const PositionRange pos = index.CellPositions(cell.id, strategy);
    agg.searches += 2;
    ++agg.query_cells;
    const auto& pi = index.prefix_index();
    const double cnt = static_cast<double>(pi.CountBetween(pos.lo, pos.hi));
    const TwoDouble sum = pi.SumPairBetween(pos.lo, pos.hi);
    agg.count += cnt;
    const TwoDouble s = AddPair({agg.sum, agg.sum_comp}, sum);
    agg.sum = s.hi;
    agg.sum_comp = s.lo;
    if (cell.boundary) {
      agg.boundary_count += cnt;
      const TwoDouble b = AddPair({agg.boundary_sum, agg.boundary_sum_comp}, sum);
      agg.boundary_sum = b.hi;
      agg.boundary_sum_comp = b.lo;
    }
  }
  return agg;
}

std::vector<uint32_t> PerCellIds(const PointIndex& index,
                                 const std::vector<raster::HrCell>& cells,
                                 SearchStrategy strategy) {
  std::vector<uint32_t> ids;
  for (const raster::HrCell& cell : cells) {
    const PositionRange pos = index.CellPositions(cell.id, strategy);
    index.prefix_index().CollectIds(pos.lo, pos.hi, &ids);
  }
  return ids;
}

TEST(PointIndexTest, RunWalkMatchesPerCellSearches) {
  // Points fill the left 300 units only, so cells to the right are empty;
  // 40 locations repeat 60 times each (duplicate leaf keys), and both
  // corners of the universe hold points (leaf keys 0 and the largest).
  const raster::Grid grid({0, 0}, 512.0);
  std::vector<geom::Point> pts =
      dbsa::testing::RandomPoints(geom::Box(0, 0, 300, 512), 12000, 7);
  for (size_t i = 0; i < 40; ++i) {
    const geom::Point repeated = pts[i * 97];
    pts.insert(pts.end(), 60, repeated);
  }
  pts.insert(pts.end(), 25, geom::Point{0, 0});
  pts.insert(pts.end(), 25, geom::Point{512, 512});
  Rng rng(8);
  std::vector<double> attrs;
  for (size_t i = 0; i < pts.size(); ++i) attrs.push_back(rng.Uniform(-1, 2));
  const PointIndex index(pts.data(), attrs.data(), pts.size(), grid);
  ASSERT_EQ(index.prefix_index().keys().keys().front(), 0u);
  ASSERT_EQ(index.prefix_index().keys().keys().back(),
            raster::CellId::FromLevelPrefix(0, 0).LeafKeyMax());

  geom::Polygon corners(geom::Ring{{0, 0}, {512, 0}, {512, 512}});
  corners.Normalize();
  const std::vector<geom::Polygon> polys = {
      dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 1),
      dbsa::testing::MakeStarPolygonWithHole({200, 300}, 80, 160, 24, 2),
      dbsa::testing::MakeLPolygon(60, 60, 120),
      corners,  // Through both corners of the universe.
  };
  const std::vector<raster::HrCell> none;
  std::mt19937_64 shuffle_rng(9);
  for (const SearchStrategy strategy :
       {SearchStrategy::kBinarySearch, SearchStrategy::kRadixSpline,
        SearchStrategy::kBTree}) {
    for (size_t p = 0; p < polys.size(); ++p) {
      for (const double eps : {2.0, 4.0, 8.0, 32.0}) {
        const raster::HierarchicalRaster hr =
            raster::HierarchicalRaster::BuildEpsilon(polys[p], grid, eps);
        const std::vector<raster::HrCell>& full = hr.cells();
        ASSERT_GE(full.size(), 2u);
        // A shard prune drops cells; the wire does not promise Z order.
        std::vector<raster::HrCell> pruned;
        for (size_t c = 0; c < full.size(); ++c) {
          if (c % 3 != 2) pruned.push_back(full[c]);
        }
        std::vector<raster::HrCell> shuffled = full;
        std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
        const struct {
          const char* name;
          const std::vector<raster::HrCell>& cells;
        } kInputs[] = {{"full", full},
                       {"pruned", pruned},
                       {"shuffled", shuffled},
                       {"none", none}};
        for (const auto& input : kInputs) {
          const std::vector<raster::HrCell>& cells = input.cells;
          const std::string where =
              "strategy " + std::to_string(static_cast<int>(strategy)) + " poly " +
              std::to_string(p) + " eps " + std::to_string(eps) + " " + input.name;
          const CellAggregate want = PerCellAggregate(index, cells, strategy);
          const CellAggregate got =
              index.QueryCells(cells.data(), cells.size(), strategy);
          ExpectSameBits(want, got, where);
          EXPECT_EQ(got.query_cells, cells.size()) << where;
          EXPECT_LE(got.searches, 2 * cells.size()) << where;

          std::vector<uint32_t> ids;
          index.SelectIds(cells.data(), cells.size(), strategy, &ids);
          EXPECT_EQ(ids, PerCellIds(index, cells, strategy)) << where;
        }
        // Z-ordered cells form runs, so the walk saves searches.
        const CellAggregate whole = index.QueryCells(hr, strategy);
        EXPECT_LT(whole.searches, 2 * full.size()) << "poly " << p << " eps " << eps;
      }
    }
  }
}

TEST(PointIndexTest, ConservativeCountsBracketExact) {
  const PiSetup s = MakeSetup(30000, 2);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, seed);
    size_t exact = 0;
    for (const geom::Point& p : s.pts) {
      if (poly.bounds().Contains(p) && poly.Contains(p)) ++exact;
    }
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 4.0);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kRadixSpline);
    // Conservative: count >= exact; over-count confined to boundary cells.
    EXPECT_GE(agg.count + 1e-9, static_cast<double>(exact)) << "seed " << seed;
    EXPECT_LE(agg.count - agg.boundary_count, static_cast<double>(exact) + 1e-9)
        << "interior-only count must under-count";
  }
}

TEST(PointIndexTest, ResultRangeAlwaysContainsExact) {
  const PiSetup s = MakeSetup(30000, 3);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon poly =
        dbsa::testing::MakeStarPolygon({200 + 10.0 * seed, 256}, 50, 140, 16, seed);
    size_t exact_count = 0;
    double exact_sum = 0;
    for (size_t i = 0; i < s.pts.size(); ++i) {
      if (poly.bounds().Contains(s.pts[i]) && poly.Contains(s.pts[i])) {
        ++exact_count;
        exact_sum += s.attrs[i];
      }
    }
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, 8.0);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kBinarySearch);
    const ResultRange count_range = CountRange(agg);
    const ResultRange sum_range = SumRange(agg);
    EXPECT_TRUE(count_range.Contains(static_cast<double>(exact_count)))
        << "seed " << seed << " range [" << count_range.lo << "," << count_range.hi
        << "] exact " << exact_count;
    EXPECT_TRUE(sum_range.Contains(exact_sum)) << "seed " << seed;
    // The beta estimate lands inside the guaranteed interval.
    EXPECT_GE(count_range.estimate, count_range.lo - 1e-9);
    EXPECT_LE(count_range.estimate, count_range.hi + 1e-9);
  }
}

TEST(PointIndexTest, TighterEpsilonShrinksRange) {
  const PiSetup s = MakeSetup(30000, 4);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 5);
  double prev_width = 1e300;
  for (const double eps : {32.0, 8.0, 2.0}) {
    const raster::HierarchicalRaster hr =
        raster::HierarchicalRaster::BuildEpsilon(poly, s.grid, eps);
    const CellAggregate agg = index.QueryCells(hr, SearchStrategy::kBinarySearch);
    const ResultRange range = CountRange(agg);
    EXPECT_LT(range.Width(), prev_width) << "eps " << eps;
    prev_width = range.Width();
  }
}

TEST(PointIndexTest, BudgetQueryPolygonPath) {
  const PiSetup s = MakeSetup(10000, 5);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const geom::Polygon poly = dbsa::testing::MakeStarPolygon({256, 256}, 60, 150, 18, 6);
  size_t prev_cells = 0;
  double prev_err = 1e300;
  size_t exact = 0;
  for (const geom::Point& p : s.pts) {
    if (poly.bounds().Contains(p) && poly.Contains(p)) ++exact;
  }
  for (const size_t budget : {32u, 128u, 512u}) {
    const CellAggregate agg =
        index.QueryPolygon(poly, budget, SearchStrategy::kRadixSpline);
    EXPECT_LE(agg.query_cells, budget);
    EXPECT_GT(agg.query_cells, prev_cells);
    prev_cells = agg.query_cells;
    const double err = std::fabs(agg.count - static_cast<double>(exact));
    EXPECT_LE(err, prev_err + 1.0) << "budget " << budget;
    prev_err = err;
  }
  // At 512 cells the count is close to exact (Figure 4(b)'s message).
  EXPECT_LT(prev_err / static_cast<double>(exact), 0.12);
}

TEST(PointIndexTest, MemoryAccounting) {
  const PiSetup s = MakeSetup(5000, 6);
  const PointIndex index(s.pts.data(), s.attrs.data(), s.pts.size(), s.grid);
  const size_t bs = index.MemoryBytes(SearchStrategy::kBinarySearch);
  const size_t rs = index.MemoryBytes(SearchStrategy::kRadixSpline);
  const size_t bt = index.MemoryBytes(SearchStrategy::kBTree);
  EXPECT_GT(bs, 0u);
  EXPECT_GT(rs, bs);  // Spline + radix table on top of the keys.
  EXPECT_GT(bt, bs);
}

}  // namespace
}  // namespace dbsa::join
