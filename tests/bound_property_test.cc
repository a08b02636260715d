// Cross-cutting property sweep for the paper's central invariant,
// d_H(g, g') <= epsilon, across every approximation construction the
// library offers: the uniform raster, the epsilon-driven and the
// budget-driven hierarchical raster, conservative / non-conservative
// modes, simple / holed / sliver / L-shaped polygons. Each combination is
// a TEST_P instance.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "geom/distance.h"
#include "raster/verify.h"
#include "test_util.h"

namespace dbsa::raster {
namespace {

enum class Shape { kStar, kHoled, kSliver, kLShape };
enum class Builder { kUniform, kHrEpsilon, kHrBudget };

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kStar:
      return "star";
    case Shape::kHoled:
      return "holed";
    case Shape::kSliver:
      return "sliver";
    case Shape::kLShape:
      return "lshape";
  }
  return "?";
}

const char* BuilderName(Builder b) {
  switch (b) {
    case Builder::kUniform:
      return "uniform";
    case Builder::kHrEpsilon:
      return "hr_epsilon";
    case Builder::kHrBudget:
      return "hr_budget";
  }
  return "?";
}

geom::Polygon MakeShape(Shape shape, uint64_t seed) {
  switch (shape) {
    case Shape::kStar:
      return dbsa::testing::MakeStarPolygon({128, 128}, 40, 90, 18, seed);
    case Shape::kHoled:
      return dbsa::testing::MakeStarPolygonWithHole({128, 128}, 40, 90, 18, seed);
    case Shape::kSliver: {
      // A long thin quadrilateral: thinner than a coarse cell.
      Rng rng(seed);
      const double y = rng.Uniform(60, 190);
      geom::Polygon poly(geom::Ring{
          {30, y}, {220, y + rng.Uniform(-8, 8)}, {221, y + rng.Uniform(1.5, 4.0)},
          {31, y + 3.0}});
      poly.Normalize();
      return poly;
    }
    case Shape::kLShape:
      return dbsa::testing::MakeLPolygon(60, 60, 120);
  }
  return {};
}

class BoundSweepTest
    : public ::testing::TestWithParam<std::tuple<Shape, Builder, bool, double>> {};

TEST_P(BoundSweepTest, HausdorffWithinEpsilon) {
  const auto [shape, builder, conservative, eps] = GetParam();
  const Grid grid({0, 0}, 256.0);
  RasterOptions opts;
  opts.conservative = conservative;
  opts.min_coverage = 0.5;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const geom::Polygon poly = MakeShape(shape, seed);
    ASSERT_TRUE(poly.IsFinite());
    ASSERT_GT(poly.Area(), 0.0);
    BoundCheck check;
    double achieved = eps;
    switch (builder) {
      case Builder::kUniform: {
        const UniformRaster ur = UniformRaster::Build(poly, grid, eps, opts);
        achieved = grid.AchievedEpsilon(ur.level());
        check = CheckBound(poly, grid, ur, eps * 0.25);
        break;
      }
      case Builder::kHrEpsilon: {
        const HierarchicalRaster hr =
            HierarchicalRaster::BuildEpsilon(poly, grid, eps, opts);
        achieved = grid.AchievedEpsilon(grid.LevelForEpsilon(eps));
        check = CheckBound(poly, grid, hr, eps * 0.25);
        break;
      }
      case Builder::kHrBudget: {
        // Budget mode: the achieved epsilon is whatever the budget buys;
        // verify against THAT bound (still guaranteed, just not chosen).
        const HierarchicalRaster hr =
            HierarchicalRaster::BuildBudget(poly, grid, 256, opts);
        achieved = hr.AchievedEpsilon(grid);
        check = CheckBound(poly, grid, hr, achieved * 0.25);
        break;
      }
    }
    ASSERT_LE(achieved, builder == Builder::kHrBudget ? achieved : eps * (1 + 1e-12));
    // False positives never stray beyond the achieved bound.
    EXPECT_LE(check.max_false_positive_dist, achieved + 1e-9)
        << ShapeName(shape) << "/" << BuilderName(builder) << " seed " << seed;
    if (conservative) {
      EXPECT_TRUE(check.covers_polygon)
          << ShapeName(shape) << "/" << BuilderName(builder) << " seed " << seed;
    } else if (shape != Shape::kSliver) {
      // Two-sided mode: misses stay within the bound of kept coverage.
      // (Excluded for slivers: a geometry thinner than the coverage
      // threshold can lose ALL its cells, so the two-sided Hausdorff
      // bound degenerates — see NonConservativeSliverCaveat below. The
      // per-point guarantee — errors lie within epsilon of the TRUE
      // boundary — still holds there.)
      EXPECT_LE(check.max_false_negative_dist, achieved + 1e-9)
          << ShapeName(shape) << "/" << BuilderName(builder) << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, BoundSweepTest,
    ::testing::Combine(::testing::Values(Shape::kStar, Shape::kHoled, Shape::kSliver,
                                         Shape::kLShape),
                       ::testing::Values(Builder::kUniform, Builder::kHrEpsilon,
                                         Builder::kHrBudget),
                       ::testing::Bool(), ::testing::Values(16.0, 6.0)),
    [](const ::testing::TestParamInfo<std::tuple<Shape, Builder, bool, double>>&
           info) {
      // No structured bindings here: the brackets' commas would split the
      // macro arguments.
      return std::string(ShapeName(std::get<0>(info.param))) + "_" +
             BuilderName(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) ? "cons" : "noncons") + "_eps" +
             std::to_string(static_cast<int>(std::get<3>(info.param)));
    });

TEST(BoundSweepTest, NonConservativeSliverCaveat) {
  // Documents a limit of non-conservative rasters the paper does not
  // dwell on: a sliver thinner than the coverage threshold may lose all
  // its cells, so d_H(g, g') is unbounded in the g -> g' direction. The
  // guarantee that DOES survive is per-point error locality: any missed
  // point is inside a dropped boundary cell, hence within the cell
  // diagonal (= epsilon) of the true geometry boundary — which is what
  // the approximate-join error semantics rely on. Conservative mode
  // (the default) never has this failure mode.
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon sliver = MakeShape(Shape::kSliver, 1);
  RasterOptions drop_all;
  drop_all.conservative = false;
  drop_all.min_coverage = 0.9;  // Slivers cover < 90% of any cell.
  const UniformRaster ur = UniformRaster::Build(sliver, grid, 24.0, drop_all);
  EXPECT_EQ(ur.cover().TotalCells(), 0u);  // The pathological case is real.
  // Per-point locality: every point of the sliver is within eps of its
  // own boundary (trivially, since the sliver is thin) — consistent with
  // the error-locality guarantee the joins verify.
  for (const geom::Point& p : dbsa::testing::RandomPoints(sliver.bounds(), 100, 2)) {
    if (sliver.Contains(p)) {
      EXPECT_LE(geom::DistanceToBoundary(p, sliver), 24.0);
    }
  }
}

TEST(BoundSweepTest, SliverSurvivesConservativeRaster) {
  // A sliver thinner than a cell must still be fully covered by a
  // conservative raster (it becomes pure boundary cells).
  const Grid grid({0, 0}, 256.0);
  const geom::Polygon sliver = MakeShape(Shape::kSliver, 2);
  const UniformRaster ur = UniformRaster::Build(sliver, grid, 24.0);
  for (const geom::Point& p :
       dbsa::testing::RandomPoints(sliver.bounds(), 400, 3)) {
    if (sliver.Contains(p)) {
      ASSERT_NE(ur.Classify(p, grid), CellKind::kOutside);
    }
  }
  EXPECT_EQ(ur.cover().interior.size(), 0u);  // Too thin for interior cells.
}

}  // namespace
}  // namespace dbsa::raster
