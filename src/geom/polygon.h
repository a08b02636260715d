// The polygon type with the exact predicates the paper's refinement step
// performs (point-in-polygon being the expensive one that
// distance-bounded approximations eliminate).

#ifndef DBSA_GEOM_POLYGON_H_
#define DBSA_GEOM_POLYGON_H_

#include <cstddef>
#include <vector>

#include "geom/box.h"
#include "geom/point.h"

namespace dbsa::geom {

/// A closed ring of vertices. The closing edge (back -> front) is implicit;
/// the first vertex is NOT repeated at the end.
using Ring = std::vector<Point>;

/// Signed area of a ring (> 0 for counter-clockwise orientation).
double SignedArea(const Ring& ring);

/// Ring perimeter (including the implicit closing edge).
double Perimeter(const Ring& ring);

/// Crossing-number point-in-ring test. Boundary points may report either
/// side (consistent with the paper's treatment of fuzzy boundaries).
bool RingContains(const Ring& ring, const Point& p);

/// A simple polygon: one outer ring plus zero or more hole rings. The
/// canonical orientation (outer CCW, holes CW) is enforced by Normalize().
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(Ring outer) : outer_(std::move(outer)) { RecomputeBounds(); }
  Polygon(Ring outer, std::vector<Ring> holes)
      : outer_(std::move(outer)), holes_(std::move(holes)) {
    RecomputeBounds();
  }

  const Ring& outer() const { return outer_; }
  const std::vector<Ring>& holes() const { return holes_; }
  const Box& bounds() const { return bounds_; }

  /// Total vertex count across all rings.
  size_t NumVertices() const;

  /// Area of the outer ring minus the hole areas.
  double Area() const;

  /// Perimeter of all rings.
  double TotalPerimeter() const;

  /// Exact containment: inside the outer ring and outside every hole.
  /// Cost is linear in the vertex count — this is the PIP test whose
  /// elimination the paper's approximate processing targets.
  bool Contains(const Point& p) const;

  /// True iff any ring edge intersects the box.
  bool BoundaryIntersectsBox(const Box& box) const;

  /// Enforces outer-CCW / holes-CW orientation and refreshes bounds.
  void Normalize();

  /// True iff every vertex of every ring has finite coordinates.
  bool IsFinite() const;

  /// Iterates all edges (over all rings) as (a, b) pairs.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    auto ring_edges = [&fn](const Ring& r) {
      const size_t n = r.size();
      for (size_t i = 0; i < n; ++i) {
        fn(r[i], r[(i + 1 == n) ? 0 : i + 1]);
      }
    };
    ring_edges(outer_);
    for (const Ring& h : holes_) ring_edges(h);
  }

 private:
  void RecomputeBounds();

  Ring outer_;
  std::vector<Ring> holes_;
  Box bounds_;
};

}  // namespace dbsa::geom

#endif  // DBSA_GEOM_POLYGON_H_
