// Tests for the grid, the scanline rasterizer, and the uniform raster:
// the conservative-coverage and distance-bound properties of Section 2.2.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "geom/distance.h"
#include "raster/grid.h"
#include "raster/rasterizer.h"
#include "raster/uniform_raster.h"
#include "raster/verify.h"
#include "test_util.h"

namespace dbsa::raster {
namespace {

using dbsa::testing::MakeLPolygon;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::MakeStarPolygonWithHole;

TEST(GridTest, LevelForEpsilonMeetsBound) {
  const Grid grid({0, 0}, 1024.0);
  for (const double eps : {512.0, 100.0, 10.0, 1.0, 0.37}) {
    const int level = grid.LevelForEpsilon(eps);
    EXPECT_LE(grid.CellDiagonal(level), eps * (1 + 1e-12)) << "eps " << eps;
    if (level > 0) {
      // One level coarser would violate the bound.
      EXPECT_GT(grid.CellDiagonal(level - 1), eps) << "eps " << eps;
    }
  }
}

TEST(GridTest, LevelForEpsilonNeverExceedsRequestAtPowerOfTwoRatios) {
  // Regression: the level was ceil(log2(side * sqrt(2) / eps)) in floating
  // point, so epsilons that put the ratio at (or within one ulp of) an
  // exact power of two could round to a level whose achieved epsilon
  // exceeds the request — a distance-bound violation. Sweep exact
  // power-of-two ratios and their one-ulp neighbours on several grids.
  for (const double side : {1024.0, 1.0, 3.0, 16384.0, 0.125}) {
    const Grid grid({0, 0}, side);
    for (int level = 0; level <= CellId::kMaxLevel; ++level) {
      // eps chosen so side * sqrt(2) / eps == 2^level up to rounding.
      const double exact = grid.CellDiagonal(level);
      for (const double eps :
           {exact, std::nextafter(exact, 2 * exact),
            std::nextafter(exact, 0.0)}) {
        const int chosen = grid.LevelForEpsilon(eps);
        if (chosen < CellId::kMaxLevel) {
          EXPECT_LE(grid.AchievedEpsilon(chosen), eps)
              << "side " << side << " level " << level << " eps " << eps;
        }
        // Never wastefully fine: one level coarser must violate the bound
        // (the "smallest such level" contract).
        if (chosen > 0) {
          EXPECT_GT(grid.AchievedEpsilon(chosen - 1), eps)
              << "side " << side << " level " << level << " eps " << eps;
        }
      }
    }
  }
}

TEST(GridTest, PointToCellAndBox) {
  const Grid grid({0, 0}, 1024.0);
  uint32_t ix, iy;
  grid.PointToXY({100.0, 900.0}, 2, &ix, &iy);  // 4x4 cells of 256.
  EXPECT_EQ(ix, 0u);
  EXPECT_EQ(iy, 3u);
  const geom::Box box = grid.CellBoxXY(2, ix, iy);
  EXPECT_DOUBLE_EQ(box.min.y, 768.0);
  EXPECT_TRUE(box.Contains(geom::Point{100.0, 900.0}));
}

TEST(GridTest, PointsOutsideClampToEdgeCells) {
  const Grid grid({0, 0}, 100.0);
  uint32_t ix, iy;
  grid.PointToXY({-5.0, 105.0}, 4, &ix, &iy);
  EXPECT_EQ(ix, 0u);
  EXPECT_EQ(iy, 15u);
}

TEST(GridTest, LeafKeyConsistentWithCellBox) {
  const Grid grid({0, 0}, 4096.0);
  const geom::Point p{123.456, 789.012};
  const CellId leaf = CellId::FromLeafKey(grid.LeafKey(p));
  EXPECT_TRUE(grid.CellBox(leaf).Contains(p));
}

TEST(GridTest, CoveringAddsMargin) {
  geom::Box data(10, 20, 110, 70);
  const Grid grid = Grid::Covering(data);
  EXPECT_TRUE(grid.universe().Contains(data.min));
  EXPECT_TRUE(grid.universe().Contains(data.max));
  EXPECT_GE(grid.side(), 100.0);
}

TEST(TraverseSegmentTest, AxisAlignedLine) {
  const Grid grid({0, 0}, 16.0);
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  TraverseSegment({0.5, 0.5}, {7.5, 0.5}, grid, 4,
                  [&](uint32_t x, uint32_t y) { cells.push_back({x, y}); });
  ASSERT_EQ(cells.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cells[i].first, i);
    EXPECT_EQ(cells[i].second, 0u);
  }
}

TEST(TraverseSegmentTest, DiagonalCoversSegmentSamples) {
  // Property: every sampled point of the segment lies in a visited cell.
  const Grid grid({0, 0}, 64.0);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const geom::Point a{rng.Uniform(1, 63), rng.Uniform(1, 63)};
    const geom::Point b{rng.Uniform(1, 63), rng.Uniform(1, 63)};
    std::set<std::pair<uint32_t, uint32_t>> visited;
    TraverseSegment(a, b, grid, 6, [&](uint32_t x, uint32_t y) {
      visited.insert({x, y});
    });
    for (int s = 0; s <= 200; ++s) {
      const geom::Point p = a + (b - a) * (s / 200.0);
      uint32_t ix, iy;
      grid.PointToXY(p, 6, &ix, &iy);
      ASSERT_TRUE(visited.count({ix, iy}))
          << "seed " << seed << " sample " << s << " cell (" << ix << "," << iy << ")";
    }
  }
}

TEST(RasterizeTest, RectangleCellCounts) {
  // A 4x4 world rect aligned to a grid of cell size 1: boundary ring plus
  // interior square.
  const Grid grid({0, 0}, 16.0);
  const geom::Polygon rect = MakeRectPolygon(4, 4, 8, 8);
  const CellCover cover = RasterizePolygon(rect, grid, 4);  // Cell size 1.
  // Interior: cells fully inside = 2x2 .. 3x3? The rect spans cells
  // [4..7]x[4..7]; its edges lie on cell borders, so the supercover marks
  // the cells on both sides; interior = cells whose center is inside and
  // untouched by edges.
  EXPECT_GT(cover.interior.size(), 0u);
  EXPECT_GT(cover.boundary.size(), 0u);
  // All cells within the bbox neighborhood.
  for (const uint64_t m : cover.interior) {
    uint32_t x, y;
    sfc::MortonDecode(m, &x, &y);
    EXPECT_GE(x, 4u);
    EXPECT_LE(x, 7u);
    EXPECT_GE(y, 4u);
    EXPECT_LE(y, 7u);
  }
}

TEST(RasterizeTest, InteriorCellsAreFullyInside) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    const CellCover cover = RasterizePolygon(star, grid, 6);
    for (const uint64_t m : cover.interior) {
      uint32_t x, y;
      sfc::MortonDecode(m, &x, &y);
      const geom::Box cell = grid.CellBoxXY(6, x, y);
      // All four corners inside the polygon.
      EXPECT_TRUE(star.Contains(cell.min)) << "seed " << seed;
      EXPECT_TRUE(star.Contains(cell.max)) << "seed " << seed;
      EXPECT_TRUE(star.Contains({cell.min.x, cell.max.y})) << "seed " << seed;
      EXPECT_TRUE(star.Contains({cell.max.x, cell.min.y})) << "seed " << seed;
    }
  }
}

TEST(RasterizeTest, ConservativeCoversAllPolygonSamples) {
  const Grid grid({0, 0}, 256.0);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const geom::Polygon star = MakeStarPolygonWithHole({128, 128}, 40, 90, 18, seed);
    const UniformRaster ur = UniformRaster::BuildAtLevel(star, grid, 7);
    // Interior samples.
    for (const geom::Point& p :
         dbsa::testing::RandomPoints(star.bounds(), 500, seed)) {
      if (star.Contains(p)) {
        EXPECT_NE(ur.Classify(p, grid), CellKind::kOutside)
            << "seed " << seed << " point " << p.x << "," << p.y;
      }
    }
  }
}

TEST(RasterizeTest, NonConservativeDropsLowCoverageCells) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 18, 3);
  RasterOptions conservative;
  RasterOptions aggressive;
  aggressive.conservative = false;
  aggressive.min_coverage = 0.5;
  const CellCover keep_all = RasterizePolygon(star, grid, 7, conservative);
  const CellCover dropped = RasterizePolygon(star, grid, 7, aggressive);
  EXPECT_LT(dropped.boundary.size(), keep_all.boundary.size());
  EXPECT_EQ(dropped.interior.size(), keep_all.interior.size());
}

TEST(UniformRasterTest, EpsilonBoundHolds) {
  const Grid grid({0, 0}, 256.0);
  for (const double eps : {16.0, 8.0, 2.0}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, seed);
      const UniformRaster ur = UniformRaster::Build(star, grid, eps);
      EXPECT_LE(grid.AchievedEpsilon(ur.level()), eps * (1 + 1e-12));
      const BoundCheck check = CheckBound(star, grid, ur, eps * 0.25);
      EXPECT_LE(check.max_false_positive_dist, eps + 1e-9)
          << "eps " << eps << " seed " << seed;
      EXPECT_TRUE(check.covers_polygon) << "conservative must cover";
    }
  }
}

TEST(UniformRasterTest, NonConservativeErrorsStayBounded) {
  const Grid grid({0, 0}, 256.0);
  const double eps = 8.0;
  RasterOptions opts;
  opts.conservative = false;
  opts.min_coverage = 0.5;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, seed);
    const UniformRaster ur = UniformRaster::Build(star, grid, eps, opts);
    const BoundCheck check = CheckBound(star, grid, ur, eps * 0.25);
    EXPECT_LE(check.max_false_positive_dist, eps + 1e-9) << "seed " << seed;
    // False negatives exist but stay within the bound of the kept cells.
    EXPECT_LE(check.max_false_negative_dist, eps + 1e-9) << "seed " << seed;
  }
}

TEST(UniformRasterTest, ClassifyDistinguishesKinds) {
  const Grid grid({0, 0}, 64.0);
  const geom::Polygon rect = MakeRectPolygon(8.5, 8.5, 55.5, 55.5);
  const UniformRaster ur = UniformRaster::BuildAtLevel(rect, grid, 4);  // 4-unit cells.
  EXPECT_EQ(ur.Classify({32, 32}, grid), CellKind::kInterior);
  EXPECT_EQ(ur.Classify({8.6, 32}, grid), CellKind::kBoundary);
  EXPECT_EQ(ur.Classify({2, 2}, grid), CellKind::kOutside);
}

TEST(UniformRasterTest, FinerLevelsGiveMoreCells) {
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon star = MakeStarPolygon({128, 128}, 40, 90, 16, 9);
  size_t prev = 0;
  for (int level = 4; level <= 8; ++level) {
    const UniformRaster ur = UniformRaster::BuildAtLevel(star, grid, level);
    EXPECT_GT(ur.cover().TotalCells(), prev) << "level " << level;
    prev = ur.cover().TotalCells();
  }
}

}  // namespace
}  // namespace dbsa::raster
