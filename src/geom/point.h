// 2-D point / vector type. Coordinates are doubles in "universe" units
// (metres throughout the benches).

#ifndef DBSA_GEOM_POINT_H_
#define DBSA_GEOM_POINT_H_

#include <cmath>

namespace dbsa::geom {

/// A 2-D point (also used as a vector).
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double px, double py) : x(px), y(py) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
  bool operator!=(const Point& o) const { return !(*this == o); }

  double Dot(const Point& o) const { return x * o.x + y * o.y; }
  /// 2-D cross product (z-component of the 3-D cross product).
  double Cross(const Point& o) const { return x * o.y - y * o.x; }
  double Norm2() const { return x * x + y * y; }
  double Norm() const { return std::sqrt(Norm2()); }
};

/// Euclidean distance between two points.
inline double Distance(const Point& a, const Point& b) { return (a - b).Norm(); }

/// Squared Euclidean distance (avoids the sqrt when only comparing).
inline double Distance2(const Point& a, const Point& b) { return (a - b).Norm2(); }

/// Orientation of the triple (a, b, c): > 0 counter-clockwise, < 0 clockwise,
/// 0 collinear.
inline double Orient(const Point& a, const Point& b, const Point& c) {
  return (b - a).Cross(c - a);
}

}  // namespace dbsa::geom

#endif  // DBSA_GEOM_POINT_H_
