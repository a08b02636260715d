// Tests for the optimization layer: selectivity estimation accuracy and
// cost-based plan selection behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "query/optimizer.h"
#include "query/selectivity.h"
#include "test_util.h"

namespace dbsa::query {
namespace {

TEST(SelectivityTest, UniformDataBoxEstimates) {
  const geom::Box universe(0, 0, 1000, 1000);
  const auto pts = dbsa::testing::RandomPoints(universe, 50000, 1);
  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 64);
  EXPECT_EQ(hist.total(), 50000u);

  for (const double frac : {0.5, 0.2, 0.05}) {
    const double side = 1000.0 * frac;
    const geom::Box q(100, 100, 100 + side, 100 + side);
    const double want = 50000.0 * frac * frac;
    const double got = hist.EstimateBox(q);
    EXPECT_NEAR(got, want, want * 0.15 + 50) << "frac " << frac;
  }
}

TEST(SelectivityTest, FractionalCellCoverage) {
  const geom::Box universe(0, 0, 100, 100);
  const auto pts = dbsa::testing::RandomPoints(universe, 10000, 2);
  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 10);
  // A box covering exactly half a cell row.
  const double est = hist.EstimateBox(geom::Box(0, 0, 100, 5));
  EXPECT_NEAR(est, 500.0, 120.0);
}

TEST(SelectivityTest, PolygonEstimateTracksArea) {
  const geom::Box universe(0, 0, 1000, 1000);
  const auto pts = dbsa::testing::RandomPoints(universe, 40000, 3);
  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 64);
  const geom::Polygon star = dbsa::testing::MakeStarPolygon({500, 500}, 150, 250, 20, 4);
  const double want = 40000.0 * star.Area() / 1e6;
  const double got = hist.EstimatePolygon(star);
  EXPECT_NEAR(got, want, want * 0.3 + 100);
}

TEST(SelectivityTest, DisjointQueryIsZero) {
  const geom::Box universe(0, 0, 100, 100);
  const auto pts = dbsa::testing::RandomPoints(universe, 1000, 5);
  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 16);
  EXPECT_EQ(hist.EstimateBox(geom::Box(200, 200, 300, 300)), 0.0);
}

TEST(SelectivityTest, CollinearPointsDegenerateUniverse) {
  // Regression: a zero-width universe (all points on a vertical line)
  // used to produce 0-sized cells, NaN indexes (UB on the uint32_t cast)
  // and NaN estimates from 0/0 coverage fractions.
  std::vector<geom::Point> pts;
  for (int i = 0; i < 100; ++i) pts.push_back({5.0, static_cast<double>(i)});
  geom::Box universe;
  for (const geom::Point& p : pts) universe.Extend(p);
  ASSERT_EQ(universe.Width(), 0.0);

  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 16);
  EXPECT_EQ(hist.total(), 100u);

  // Covering box: everything. Disjoint box: nothing. Half the y-range:
  // about half, and always finite.
  const double all = hist.EstimateBox(geom::Box(0, -1, 10, 100));
  EXPECT_TRUE(std::isfinite(all));
  EXPECT_NEAR(all, 100.0, 1e-9);
  EXPECT_EQ(hist.EstimateBox(geom::Box(6, 0, 10, 99)), 0.0);
  const double half = hist.EstimateBox(geom::Box(0, 0, 10, 49.5));
  EXPECT_TRUE(std::isfinite(half));
  EXPECT_NEAR(half, 50.0, 8.0);

  const geom::Polygon poly = dbsa::testing::MakeRectPolygon(0, 10, 10, 20);
  EXPECT_TRUE(std::isfinite(hist.EstimatePolygon(poly)));
}

TEST(SelectivityTest, HorizontalLineAndSinglePointUniverses) {
  // Horizontal line: zero height.
  std::vector<geom::Point> pts;
  for (int i = 0; i < 64; ++i) pts.push_back({static_cast<double>(i), -3.0});
  geom::Box universe;
  for (const geom::Point& p : pts) universe.Extend(p);
  ASSERT_EQ(universe.Height(), 0.0);
  const SelectivityHistogram hist(pts.data(), pts.size(), universe, 8);
  const double all = hist.EstimateBox(geom::Box(-1, -4, 64, 0));
  EXPECT_TRUE(std::isfinite(all));
  EXPECT_NEAR(all, 64.0, 1e-9);
  EXPECT_EQ(hist.EstimateBox(geom::Box(0, 0, 63, 10)), 0.0);

  // Single point: both axes degenerate.
  const geom::Point p{7.0, 11.0};
  const geom::Box point_universe(p, p);
  const SelectivityHistogram point_hist(&p, 1, point_universe, 4);
  const double got = point_hist.EstimateBox(geom::Box(0, 0, 20, 20));
  EXPECT_TRUE(std::isfinite(got));
  EXPECT_NEAR(got, 1.0, 1e-9);
  EXPECT_EQ(point_hist.EstimateBox(geom::Box(8, 12, 20, 20)), 0.0);
}

QueryProfile BaseProfile() {
  QueryProfile p;
  p.num_points = 1000000;
  p.num_polygons = 300;
  p.avg_vertices = 30;
  p.epsilon = 4.0;
  p.total_perimeter = 300 * 4 * 4000.0;
  p.total_polygon_area = 65536.0 * 65536.0;
  return p;
}

TEST(OptimizerTest, ExactRequiredWhenEpsilonZero) {
  QueryProfile p = BaseProfile();
  p.epsilon = 0.0;
  const PlanChoice choice = ChoosePlan(p);
  EXPECT_EQ(choice.kind, PlanKind::kExactRStar);
  EXPECT_NE(choice.explain.find("exact"), std::string::npos);
}

TEST(OptimizerTest, CompactComplexRegionsFavorThePointIndex) {
  // With complex, compact query polygons the cell-range searches beat
  // per-point PIP refinement.
  QueryProfile p = BaseProfile();
  p.num_points = 10000000;
  p.num_polygons = 100;
  p.avg_vertices = 663;                      // Boroughs-like complexity.
  p.total_perimeter = 100 * 4 * 1000.0;      // Compact regions.
  const PlanCosts costs = EstimateCosts(p);
  EXPECT_LT(costs.point_index, costs.exact);
  const PlanChoice choice = ChoosePlan(p);
  EXPECT_EQ(choice.kind, PlanKind::kPointIndexJoin);
}

TEST(OptimizerTest, ComplexPolygonsPenalizeExact) {
  QueryProfile simple = BaseProfile();
  simple.avg_vertices = 10;
  QueryProfile complex_polys = BaseProfile();
  complex_polys.avg_vertices = 700;
  EXPECT_GT(EstimateCosts(complex_polys).exact, EstimateCosts(simple).exact * 5);
}

TEST(OptimizerTest, TightEpsilonRaisesRasterCosts) {
  QueryProfile loose = BaseProfile();
  loose.epsilon = 10.0;
  QueryProfile tight = BaseProfile();
  tight.epsilon = 0.5;
  const PlanCosts lc = EstimateCosts(loose);
  const PlanCosts tc = EstimateCosts(tight);
  EXPECT_GT(tc.point_index, lc.point_index);
  // Exact cost is epsilon-independent.
  EXPECT_DOUBLE_EQ(tc.exact, lc.exact);
}

TEST(OptimizerTest, ExplainMentionsAllCandidates) {
  const PlanChoice choice = ChoosePlan(BaseProfile());
  EXPECT_NE(choice.explain.find("POINT-INDEX"), std::string::npos);
  EXPECT_NE(choice.explain.find("EXACT"), std::string::npos);
  EXPECT_GT(choice.est_cost, 0.0);
}

TEST(OptimizerTest, PlanKindNamesAreStable) {
  EXPECT_STREQ(PlanKindName(PlanKind::kPointIndexJoin), "POINT-INDEX-JOIN");
  EXPECT_STREQ(PlanKindName(PlanKind::kExactRStar), "EXACT-RSTAR");
}

}  // namespace
}  // namespace dbsa::query
