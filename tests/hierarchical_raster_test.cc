// Tests for the hierarchical raster: cell disjointness, equivalence with
// the uniform raster's classification, budget compliance and the epsilon
// bound in both construction modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/engine_state.h"
#include "raster/hierarchical_raster.h"
#include "raster/verify.h"
#include "test_util.h"

namespace dbsa::raster {
namespace {

using dbsa::testing::MakeLPolygon;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::MakeStarPolygonWithHole;

TEST(HrTest, CellsAreDisjointAndSorted) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, 4.0);
    const auto& cells = hr.cells();
    ASSERT_FALSE(cells.empty());
    for (size_t i = 1; i < cells.size(); ++i) {
      ASSERT_LT(cells[i - 1].id.id(), cells[i].id.id());
      // Disjoint: previous range ends before the next starts.
      ASSERT_LT(cells[i - 1].id.LeafKeyMax(), cells[i].id.LeafKeyMin())
          << "seed " << seed;
    }
  }
}

TEST(HrTest, ClassificationMatchesUniformRaster) {
  // The HR must represent exactly the region of the uniform raster at its
  // boundary level: the same kind at the centre of every finest cell
  // (interior cells only merge; boundary cells stay at the epsilon level).
  // The uniform raster classifies by scanline parity, independently of
  // the HR's top-down search.
  const Grid grid({0, 0}, 256.0);
  const auto expect_same_cells = [&grid](const char* shape, const geom::Polygon& poly,
                                         double eps) {
    SCOPED_TRACE(::testing::Message() << shape << " at eps " << eps);
    const UniformRaster ur = UniformRaster::Build(poly, grid, eps);
    const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(poly, grid, eps);
    const int level = grid.LevelForEpsilon(eps);
    const uint32_t side = 1u << level;
    for (uint32_t iy = 0; iy < side; ++iy) {
      for (uint32_t ix = 0; ix < side; ++ix) {
        const geom::Point p = grid.CellBoxXY(level, ix, iy).Center();
        ASSERT_EQ(Classify(hr, p, grid), ur.Classify(p, grid))
            << "cell (" << ix << "," << iy << ") at level " << level;
      }
    }
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    expect_same_cells(("holed star " + std::to_string(seed)).c_str(),
                      MakeStarPolygonWithHole({128, 128}, 40, 90, 18, seed), 4.0);
  }
  // Edges on grid lines, and edges through coarse cell corners: where the
  // per-level edge traversal has to break ties.
  geom::Polygon diamond(geom::Ring{{128, 64}, {192, 128}, {128, 192}, {64, 128}});
  diamond.Normalize();
  for (const double eps : {16.0, 6.0, 4.0, 2.0}) {
    expect_same_cells("L", MakeLPolygon(60, 60, 120), eps);
    expect_same_cells("square", MakeRectPolygon(64, 64, 192, 192), eps);
    expect_same_cells("diamond", diamond, eps);
  }
}

TEST(HrTest, MergesReduceCellCount) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 5);
  const UniformRaster ur = UniformRaster::Build(star, grid, 2.0);
  const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, 2.0);
  EXPECT_LT(hr.NumCells(), ur.cover().TotalCells());
  // Boundary cells are never merged.
  const auto boundary = std::count_if(hr.cells().begin(), hr.cells().end(),
                                      [](const HrCell& c) { return c.boundary; });
  EXPECT_EQ(static_cast<size_t>(boundary), ur.cover().boundary.size());
}

TEST(HrTest, EpsilonBoundHolds) {
  const Grid grid({0, 0}, 256.0);
  for (const double eps : {16.0, 8.0, 4.0}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, seed);
      const HierarchicalRaster hr = HierarchicalRaster::BuildEpsilon(star, grid, eps);
      EXPECT_LE(hr.AchievedEpsilon(grid), eps * (1 + 1e-12));
      const BoundCheck check = CheckBound(star, grid, hr, eps * 0.25);
      EXPECT_LE(check.max_false_positive_dist, eps + 1e-9)
          << "eps " << eps << " seed " << seed;
      EXPECT_TRUE(check.covers_polygon);
    }
  }
}

class HrBudgetTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HrBudgetTest, RespectsBudgetAndCovers) {
  const size_t budget = GetParam();
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(star, grid, budget);
    EXPECT_LE(hr.NumCells(), budget) << "seed " << seed;
    EXPECT_GT(hr.NumCells(), 0u);
    // Conservative: still covers all interior samples.
    for (const geom::Point& p :
         dbsa::testing::RandomPoints(star.bounds(), 300, seed)) {
      if (star.Contains(p)) {
        ASSERT_NE(Classify(hr, p, grid), CellKind::kOutside)
            << "budget " << budget << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HrBudgetTest,
                         ::testing::Values(8u, 32u, 128u, 512u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "budget" + std::to_string(info.param);
                         });

TEST(HrTest, LargerBudgetTightensEpsilon) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 7);
  double prev_eps = 1e300;
  for (const size_t budget : {16u, 64u, 256u, 1024u}) {
    const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(star, grid, budget);
    const double eps = hr.AchievedEpsilon(grid);
    EXPECT_LE(eps, prev_eps) << "budget " << budget;
    prev_eps = eps;
  }
}

TEST(HrTest, BudgetModeMatchesExactnessOnRect) {
  // A grid-aligned rectangle needs few cells; budget mode should find an
  // exact cover (interior only, no boundary error for centered probes).
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon rect = MakeRectPolygon(64, 64, 192, 192);
  const HierarchicalRaster hr = HierarchicalRaster::BuildBudget(rect, grid, 64);
  EXPECT_EQ(Classify(hr, {128, 128}, grid), CellKind::kInterior);
  EXPECT_EQ(Classify(hr, {10, 10}, grid), CellKind::kOutside);
}

TEST(HrTest, PointOnGridAlignedEdgeIsNeverInterior) {
  // The rectangle's right edge lies on the grid line x = c. A point on it
  // is outside by Contains, so its cell must be a boundary cell: an
  // interior one would put the point into the range's guaranteed part and
  // make the Section 6 range miss the exact count 0. Edge traversal and
  // point keys used to map c to the cells 43 and 42 respectively.
  const Grid grid =
      Grid::Covering(geom::Box(0, 0, 12617.34886753948, 12617.34886753948));
  const int level = 8;
  const double cs = grid.CellSize(level);
  const double c = 2119.3119388862897;  // grid.origin().x + 43 * cs
  const double y0 = 1000.5057196644741;
  const double y1 = 1296.2254251856589;
  const geom::Polygon rect = MakeRectPolygon(c - 6 * cs, y0, c, y1);
  const geom::Point p{c, (y0 + y1) / 2};
  ASSERT_FALSE(rect.Contains(p));
  const HierarchicalRaster hr =
      HierarchicalRaster::BuildEpsilon(rect, grid, grid.AchievedEpsilon(level));
  EXPECT_EQ(Classify(hr, p, grid), CellKind::kBoundary);

  // End to end over a one-point table: the exact count, which refines the
  // boundary cells, is 0, and the level-8 range contains it.
  data::PointSet points;
  points.locs = {p};
  points.fare = {1.0};
  points.passengers = {1};
  points.hour = {0};
  const auto state = core::BuildEngineState(
      std::make_shared<const data::PointSet>(std::move(points)),
      std::make_shared<const data::RegionSet>(), &grid);
  EXPECT_EQ(core::ExecuteCount(*state, rect, query::ErrorBound::Exact()).range.estimate,
            0.0);
  EXPECT_TRUE(core::ExecuteSelect(*state, rect, query::ErrorBound::Exact()).ids.empty());
  const join::ResultRange range =
      core::ExecuteCount(*state, rect, query::ErrorBound::AtLevel(level)).range;
  EXPECT_EQ(range.lo, 0.0);
  EXPECT_EQ(range.hi, 1.0);
}

TEST(HrTest, MemoryScalesWithCells) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 3);
  const HierarchicalRaster coarse = HierarchicalRaster::BuildEpsilon(star, grid, 16.0);
  const HierarchicalRaster fine = HierarchicalRaster::BuildEpsilon(star, grid, 1.0);
  EXPECT_GT(fine.MemoryBytes(), coarse.MemoryBytes());
  // No spare capacity: the bytes an HR holds are what MemoryBytes() (and so
  // the ApproxCache's charge) counts. Pointers, because a copy would
  // drop the slack by itself.
  const HierarchicalRaster level = HierarchicalRaster::BuildLevel(star, grid, 6);
  const HierarchicalRaster budget = HierarchicalRaster::BuildBudget(star, grid, 128);
  for (const HierarchicalRaster* hr : {&coarse, &fine, &level, &budget}) {
    EXPECT_EQ(hr->cells().capacity(), hr->NumCells());
    // The cells are all an HR holds.
    EXPECT_EQ(hr->MemoryBytes(), hr->NumCells() * sizeof(HrCell));
  }
}

}  // namespace
}  // namespace dbsa::raster
