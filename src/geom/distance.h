// Distance functions between points, rings and polygons, plus the sampled
// Hausdorff distance used to *measure* approximation error (Section 2.2 of
// the paper defines the epsilon-approximation in terms of the Hausdorff
// distance d_H).

#ifndef DBSA_GEOM_DISTANCE_H_
#define DBSA_GEOM_DISTANCE_H_

#include "geom/polygon.h"

namespace dbsa::geom {

/// Distance from p to the closest point on the ring's boundary.
double DistanceToRing(const Point& p, const Ring& ring);

/// Distance from p to the polygon *boundary* (any ring). Zero only if p is
/// exactly on an edge.
double DistanceToBoundary(const Point& p, const Polygon& poly);

/// Distance from p to the polygon as a solid region: 0 if inside,
/// otherwise the distance to the boundary.
double DistanceToPolygon(const Point& p, const Polygon& poly);

/// Directed Hausdorff distance h(A -> B) between two ring boundaries,
/// estimated by sampling A at the given max step and measuring distance
/// to B's edges exactly. The true value is within +step/2 of the result.
double DirectedHausdorffSampled(const Ring& a, const Ring& b, double step);

/// Symmetric sampled Hausdorff distance between ring boundaries.
double HausdorffSampled(const Ring& a, const Ring& b, double step);

}  // namespace dbsa::geom

#endif  // DBSA_GEOM_DISTANCE_H_
