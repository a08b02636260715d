// Shared helpers for the dbsa test suite: deterministic random geometry
// generators used by the property tests.

#ifndef DBSA_TESTS_TEST_UTIL_H_
#define DBSA_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/polygon.h"
#include "util/random.h"

namespace dbsa::testing {

/// Star-shaped (hence simple) polygon: vertices at increasing angles with
/// radii in [r_min, r_max]. Concave whenever r_max / r_min is large.
inline geom::Polygon MakeStarPolygon(const geom::Point& center, double r_min,
                                     double r_max, int n, uint64_t seed) {
  Rng rng(seed);
  geom::Ring ring;
  ring.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * 3.141592653589793 * (i + rng.Uniform() * 0.6) / n;
    const double r = rng.Uniform(r_min, r_max);
    ring.push_back({center.x + r * std::cos(angle), center.y + r * std::sin(angle)});
  }
  geom::Polygon poly(std::move(ring));
  poly.Normalize();
  return poly;
}

/// Star polygon with a star-shaped hole.
inline geom::Polygon MakeStarPolygonWithHole(const geom::Point& center, double r_min,
                                             double r_max, int n, uint64_t seed) {
  geom::Polygon outer = MakeStarPolygon(center, r_min, r_max, n, seed);
  geom::Polygon inner =
      MakeStarPolygon(center, r_min * 0.2, r_min * 0.5, std::max(n / 2, 4), seed + 1);
  geom::Polygon poly(outer.outer(), {inner.outer()});
  poly.Normalize();
  return poly;
}

/// Axis-aligned rectangle polygon.
inline geom::Polygon MakeRectPolygon(double x0, double y0, double x1, double y1) {
  geom::Polygon poly(geom::Ring{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
  poly.Normalize();
  return poly;
}

/// A concave L-shape.
inline geom::Polygon MakeLPolygon(double x0, double y0, double size) {
  geom::Ring ring{{x0, y0},
                  {x0 + size, y0},
                  {x0 + size, y0 + size * 0.4},
                  {x0 + size * 0.4, y0 + size * 0.4},
                  {x0 + size * 0.4, y0 + size},
                  {x0, y0 + size}};
  geom::Polygon poly(std::move(ring));
  poly.Normalize();
  return poly;
}

/// Exact reference for the ad-hoc queries: the rows of `points` that
/// `poly` contains, ascending — a PIP test of every point.
inline std::vector<uint32_t> BruteForceInside(const std::vector<geom::Point>& points,
                                              const geom::Polygon& poly) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < points.size(); ++i) {
    if (poly.Contains(points[i])) ids.push_back(i);
  }
  return ids;
}

/// Uniform random points in a box.
inline std::vector<geom::Point> RandomPoints(const geom::Box& box, size_t n,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<geom::Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.Uniform(box.min.x, box.max.x), rng.Uniform(box.min.y, box.max.y)});
  }
  return pts;
}

}  // namespace dbsa::testing

#endif  // DBSA_TESTS_TEST_UTIL_H_
