// Unit tests for Polygon: areas, orientation, containment (the exact PIP
// test the paper's approximate processing replaces).

#include <gtest/gtest.h>

#include "geom/polygon.h"
#include "test_util.h"
#include "util/random.h"

namespace dbsa::geom {
namespace {

Polygon UnitSquare() { return dbsa::testing::MakeRectPolygon(0, 0, 1, 1); }

TEST(PolygonTest, SignedAreaOrientation) {
  const Ring ccw{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Ring cw = ccw;
  std::reverse(cw.begin(), cw.end());
  EXPECT_DOUBLE_EQ(SignedArea(ccw), 1.0);
  EXPECT_DOUBLE_EQ(SignedArea(cw), -1.0);
}

TEST(PolygonTest, AreaPerimeter) {
  const Polygon sq = UnitSquare();
  EXPECT_DOUBLE_EQ(sq.Area(), 1.0);
  EXPECT_DOUBLE_EQ(sq.TotalPerimeter(), 4.0);
}

TEST(PolygonTest, NormalizeFixesOrientation) {
  Ring cw{{0, 0}, {0, 1}, {1, 1}, {1, 0}};
  Polygon poly(std::move(cw));
  poly.Normalize();
  EXPECT_GT(SignedArea(poly.outer()), 0.0);
}

TEST(PolygonTest, ContainsBasic) {
  const Polygon sq = UnitSquare();
  EXPECT_TRUE(sq.Contains({0.5, 0.5}));
  EXPECT_FALSE(sq.Contains({1.5, 0.5}));
  EXPECT_FALSE(sq.Contains({-0.1, 0.5}));
}

TEST(PolygonTest, ContainsConcave) {
  const Polygon l_shape = dbsa::testing::MakeLPolygon(0, 0, 10);
  EXPECT_TRUE(l_shape.Contains({1, 1}));
  EXPECT_TRUE(l_shape.Contains({1, 9}));
  EXPECT_TRUE(l_shape.Contains({9, 1}));
  // The notch (inside the bbox but outside the L).
  EXPECT_FALSE(l_shape.Contains({9, 9}));
  EXPECT_FALSE(l_shape.Contains({5, 5}));
}

TEST(PolygonTest, ContainsWithHole) {
  // Square with a centered square hole.
  Polygon poly(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}},
               {Ring{{1, 1}, {3, 1}, {3, 3}, {1, 3}}});
  poly.Normalize();
  EXPECT_TRUE(poly.Contains({0.5, 0.5}));
  EXPECT_FALSE(poly.Contains({2, 2}));  // In the hole.
  EXPECT_TRUE(poly.Contains({3.5, 3.5}));
  EXPECT_DOUBLE_EQ(poly.Area(), 16.0 - 4.0);
}

TEST(PolygonTest, HoleAreaAndVertexCount) {
  Polygon poly(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}},
               {Ring{{1, 1}, {3, 1}, {3, 3}, {1, 3}}});
  EXPECT_EQ(poly.NumVertices(), 8u);
  EXPECT_DOUBLE_EQ(poly.TotalPerimeter(), 16.0 + 8.0);
}

TEST(PolygonTest, BoundsTracksOuterRing) {
  const Polygon star =
      dbsa::testing::MakeStarPolygon({50, 50}, 5.0, 10.0, 16, /*seed=*/1);
  const Box& b = star.bounds();
  for (const Point& p : star.outer()) {
    EXPECT_TRUE(b.Contains(p));
  }
  EXPECT_LE(b.Width(), 20.0 + 1e-9);
}

TEST(PolygonTest, ContainsMatchesWindingForRandomStars) {
  // Property: for star-shaped polygons, containment can be checked
  // against the generating radial structure: points near the center are
  // inside, points beyond max radius are outside.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Point c{100, 100};
    const Polygon star = dbsa::testing::MakeStarPolygon(c, 8.0, 12.0, 24, seed);
    EXPECT_TRUE(star.Contains(c)) << "seed " << seed;
    EXPECT_FALSE(star.Contains({c.x + 12.5, c.y})) << "seed " << seed;
    EXPECT_FALSE(star.Contains({c.x, c.y - 12.5})) << "seed " << seed;
  }
}

TEST(PolygonTest, EdgeIterationCountsAllRings) {
  Polygon poly(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}},
               {Ring{{1, 1}, {3, 1}, {3, 3}, {1, 3}}});
  int edges = 0;
  poly.ForEachEdge([&](const Point&, const Point&) { ++edges; });
  EXPECT_EQ(edges, 8);
}

TEST(PolygonTest, RingContainsBoundaryConsistency) {
  // The crossing-number rule must flip exactly once crossing an edge.
  const Polygon sq = UnitSquare();
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const double y = rng.Uniform(0.01, 0.99);
    EXPECT_TRUE(sq.Contains({0.5, y}));
    EXPECT_FALSE(sq.Contains({1.5, y}));
  }
}

}  // namespace
}  // namespace dbsa::geom
