// Tests for the optimization layer: cost-based plan selection behaviour.

#include <gtest/gtest.h>

#include "query/optimizer.h"

namespace dbsa::query {
namespace {

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
