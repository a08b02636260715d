// Tests for distance functions and the sampled Hausdorff distance that
// defines the paper's epsilon-approximation (Section 2.2).

#include <gtest/gtest.h>

#include "geom/distance.h"
#include "test_util.h"

namespace dbsa::geom {
namespace {

TEST(DistanceTest, PointToRing) {
  const Ring sq{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_DOUBLE_EQ(DistanceToRing({1, 1}, sq), 1.0);   // Center to edge.
  EXPECT_DOUBLE_EQ(DistanceToRing({3, 1}, sq), 1.0);   // Outside.
  EXPECT_DOUBLE_EQ(DistanceToRing({1, 0}, sq), 0.0);   // On edge.
  EXPECT_DOUBLE_EQ(DistanceToRing({-3, -4}, sq), 5.0); // Corner 3-4-5.
}

TEST(DistanceTest, PointToPolygonSolid) {
  const Polygon sq = dbsa::testing::MakeRectPolygon(0, 0, 2, 2);
  EXPECT_EQ(DistanceToPolygon({1, 1}, sq), 0.0);  // Inside -> 0.
  EXPECT_DOUBLE_EQ(DistanceToPolygon({4, 1}, sq), 2.0);
}

TEST(DistanceTest, PolygonWithHoleDistance) {
  Polygon poly(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
               {Ring{{4, 4}, {6, 4}, {6, 6}, {4, 6}}});
  poly.Normalize();
  // Point inside the hole: outside the solid region; distance to the
  // hole's boundary.
  EXPECT_DOUBLE_EQ(DistanceToPolygon({5, 5}, poly), 1.0);
  EXPECT_DOUBLE_EQ(DistanceToBoundary({5, 5}, poly), 1.0);
}

TEST(HausdorffTest, IdenticalRingsZero) {
  const Ring sq{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  EXPECT_NEAR(HausdorffSampled(sq, sq, 0.1), 0.0, 1e-12);
}

TEST(HausdorffTest, NestedSquares) {
  const Ring inner{{1, 1}, {3, 1}, {3, 3}, {1, 3}};
  const Ring outer{{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  // Corner-to-corner distance sqrt(2) dominates.
  EXPECT_NEAR(HausdorffSampled(inner, outer, 0.01), std::sqrt(2.0), 0.02);
  // Directed distances differ from the symmetric value only by max().
  EXPECT_LE(DirectedHausdorffSampled(inner, outer, 0.01),
            HausdorffSampled(inner, outer, 0.01) + 1e-12);
}

TEST(HausdorffTest, TranslationLowerBound) {
  // Translating a ring by d gives Hausdorff <= d (and >= d/2 for squares).
  const Ring sq{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  Ring moved = sq;
  for (Point& p : moved) p.x += 1.0;
  const double h = HausdorffSampled(sq, moved, 0.01);
  EXPECT_LE(h, 1.0 + 1e-9);
  EXPECT_GE(h, 0.5);
}

TEST(HausdorffTest, MbrOfStarIsDataDependent) {
  // Section 2.2's argument: the Hausdorff distance between a concave
  // polygon and its MBR can be large — there is no epsilon knob.
  const Polygon star = dbsa::testing::MakeStarPolygon({0, 0}, 1.0, 10.0, 12, 3);
  const Box& b = star.bounds();
  const Ring mbr{{b.min.x, b.min.y}, {b.max.x, b.min.y}, {b.max.x, b.max.y},
                 {b.min.x, b.max.y}};
  const double h = HausdorffSampled(mbr, star.outer(), 0.05);
  // The star's lobes leave deep gaps: the MBR corner is far from the
  // boundary (at least the radius gap minus slack).
  EXPECT_GT(h, 1.0);
}

}  // namespace
}  // namespace dbsa::geom
