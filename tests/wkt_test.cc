// Tests for the WKT polygon reader (Status-based error handling).

#include <gtest/gtest.h>

#include "geom/wkt.h"

namespace dbsa::geom {
namespace {

TEST(WktTest, ParsePolygon) {
  const auto poly = ParseWktPolygon("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->outer().size(), 4u);  // Closing duplicate dropped.
  EXPECT_DOUBLE_EQ(poly->Area(), 16.0);
}

TEST(WktTest, ParsePolygonWithHole) {
  const auto poly = ParseWktPolygon(
      "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 3 1, 3 3, 1 3, 1 1))");
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->holes().size(), 1u);
  EXPECT_DOUBLE_EQ(poly->Area(), 12.0);
}

TEST(WktTest, ParsePolygonErrors) {
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 1))").ok());  // Too few.
  EXPECT_FALSE(ParseWktPolygon("POLYGON (0 0, 1 1, 2 2)").ok());
  EXPECT_FALSE(ParseWktPolygon("POLYGON ((0 0, 1 0, 1 1,").ok());
}

TEST(WktTest, CaseInsensitiveKeyword) {
  EXPECT_TRUE(ParseWktPolygon("polygon ((0 0, 1 0, 1 1, 0 1, 0 0))").ok());
}

}  // namespace
}  // namespace dbsa::geom
