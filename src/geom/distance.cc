#include "geom/distance.h"

#include <algorithm>
#include <cmath>

#include "geom/segment.h"

namespace dbsa::geom {

double DistanceToRing(const Point& p, const Ring& ring) {
  const size_t n = ring.size();
  if (n == 0) return std::numeric_limits<double>::infinity();
  if (n == 1) return Distance(p, ring[0]);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    best = std::min(best,
                    DistancePointSegment2(p, ring[i], ring[(i + 1 == n) ? 0 : i + 1]));
  }
  return std::sqrt(best);
}

double DistanceToBoundary(const Point& p, const Polygon& poly) {
  double best = DistanceToRing(p, poly.outer());
  for (const Ring& h : poly.holes()) best = std::min(best, DistanceToRing(p, h));
  return best;
}

double DistanceToPolygon(const Point& p, const Polygon& poly) {
  if (poly.Contains(p)) return 0.0;
  return DistanceToBoundary(p, poly);
}

namespace {

// Calls fn(p) for points sampled along the ring boundary with spacing
// <= step (all vertices are always included).
template <typename Fn>
void SampleRing(const Ring& ring, double step, Fn&& fn) {
  const size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1 == n) ? 0 : i + 1];
    fn(a);
    const double len = Distance(a, b);
    if (len > step) {
      const int k = static_cast<int>(std::ceil(len / step));
      for (int j = 1; j < k; ++j) {
        const double t = static_cast<double>(j) / k;
        fn(a + (b - a) * t);
      }
    }
  }
}

}  // namespace

double DirectedHausdorffSampled(const Ring& a, const Ring& b, double step) {
  double worst = 0.0;
  SampleRing(a, step, [&](const Point& p) {
    worst = std::max(worst, DistanceToRing(p, b));
  });
  return worst;
}

double HausdorffSampled(const Ring& a, const Ring& b, double step) {
  return std::max(DirectedHausdorffSampled(a, b, step),
                  DirectedHausdorffSampled(b, a, step));
}

}  // namespace dbsa::geom
