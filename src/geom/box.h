// Axis-aligned box (the MBR primitive).

#ifndef DBSA_GEOM_BOX_H_
#define DBSA_GEOM_BOX_H_

#include <algorithm>
#include <limits>

#include "geom/point.h"

namespace dbsa::geom {

/// Axis-aligned rectangle [min.x, max.x] x [min.y, max.y]. An empty box has
/// min > max and behaves as the identity under Extend().
struct Box {
  Point min;
  Point max;

  /// Constructs an empty (inverted) box.
  Box()
      : min(std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()),
        max(-std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()) {}
  Box(Point mn, Point mx) : min(mn), max(mx) {}
  Box(double x0, double y0, double x1, double y1) : min(x0, y0), max(x1, y1) {}

  bool IsEmpty() const { return min.x > max.x || min.y > max.y; }

  double Width() const { return max.x - min.x; }
  double Height() const { return max.y - min.y; }
  double Area() const { return IsEmpty() ? 0.0 : Width() * Height(); }
  double Margin() const { return IsEmpty() ? 0.0 : 2.0 * (Width() + Height()); }
  Point Center() const { return {(min.x + max.x) * 0.5, (min.y + max.y) * 0.5}; }

  /// Grows the box to include p.
  void Extend(const Point& p) {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
  }

  /// Grows the box to include another box.
  void Extend(const Box& b) {
    if (b.IsEmpty()) return;
    Extend(b.min);
    Extend(b.max);
  }

  /// Closed-interval containment of a point.
  bool Contains(const Point& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  /// Closed-interval overlap test.
  bool Intersects(const Box& b) const {
    return !(b.min.x > max.x || b.max.x < min.x || b.min.y > max.y || b.max.y < min.y);
  }

  /// Intersection box (empty if disjoint).
  Box Intersection(const Box& b) const {
    Box r({std::max(min.x, b.min.x), std::max(min.y, b.min.y)},
          {std::min(max.x, b.max.x), std::min(max.y, b.max.y)});
    return r;
  }

  /// Smallest box covering both.
  Box Union(const Box& b) const {
    Box r = *this;
    r.Extend(b);
    return r;
  }

  /// Area increase needed to include b.
  double Enlargement(const Box& b) const { return Union(b).Area() - Area(); }

  /// Distance from p to the box (0 if inside).
  double Distance(const Point& p) const {
    const double dx = std::max({min.x - p.x, 0.0, p.x - max.x});
    const double dy = std::max({min.y - p.y, 0.0, p.y - max.y});
    return std::sqrt(dx * dx + dy * dy);
  }
};

}  // namespace dbsa::geom

#endif  // DBSA_GEOM_BOX_H_
