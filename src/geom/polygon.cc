#include "geom/polygon.h"

#include <algorithm>
#include <cmath>

#include "geom/segment.h"

namespace dbsa::geom {

double SignedArea(const Ring& ring) {
  const size_t n = ring.size();
  if (n < 3) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1 == n) ? 0 : i + 1];
    acc += a.Cross(b);
  }
  return acc * 0.5;
}

double Perimeter(const Ring& ring) {
  const size_t n = ring.size();
  if (n < 2) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += Distance(ring[i], ring[(i + 1 == n) ? 0 : i + 1]);
  }
  return acc;
}

bool RingContains(const Ring& ring, const Point& p) {
  // Crossing-number (even-odd) rule.
  const size_t n = ring.size();
  bool inside = false;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x_int) inside = !inside;
    }
  }
  return inside;
}

size_t Polygon::NumVertices() const {
  size_t n = outer_.size();
  for (const Ring& h : holes_) n += h.size();
  return n;
}

double Polygon::Area() const {
  double a = std::fabs(SignedArea(outer_));
  for (const Ring& h : holes_) a -= std::fabs(SignedArea(h));
  return std::max(a, 0.0);
}

double Polygon::TotalPerimeter() const {
  double p = Perimeter(outer_);
  for (const Ring& h : holes_) p += Perimeter(h);
  return p;
}

bool Polygon::Contains(const Point& p) const {
  if (!bounds_.Contains(p)) return false;
  if (!RingContains(outer_, p)) return false;
  for (const Ring& h : holes_) {
    if (RingContains(h, p)) return false;
  }
  return true;
}

bool Polygon::BoundaryIntersectsBox(const Box& box) const {
  bool hit = false;
  ForEachEdge([&](const Point& a, const Point& b) {
    if (!hit && SegmentIntersectsBox(a, b, box)) hit = true;
  });
  return hit;
}

void Polygon::Normalize() {
  if (SignedArea(outer_) < 0.0) std::reverse(outer_.begin(), outer_.end());
  for (Ring& h : holes_) {
    if (SignedArea(h) > 0.0) std::reverse(h.begin(), h.end());
  }
  RecomputeBounds();
}

bool Polygon::IsFinite() const {
  const auto finite = [](const Ring& r) {
    for (const Point& p : r) {
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
    }
    return true;
  };
  if (!finite(outer_)) return false;
  for (const Ring& h : holes_) {
    if (!finite(h)) return false;
  }
  return true;
}

void Polygon::RecomputeBounds() {
  bounds_ = Box();
  for (const Point& p : outer_) bounds_.Extend(p);
}

}  // namespace dbsa::geom
