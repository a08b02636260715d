// Distance-bound verification: measures how far an approximation's errors
// can be from the exact geometry. The tests check every builder against
// it to demonstrate the paper's guarantee d_H(g, g') <= epsilon.

#ifndef DBSA_RASTER_VERIFY_H_
#define DBSA_RASTER_VERIFY_H_

#include "raster/hierarchical_raster.h"
#include "raster/uniform_raster.h"

namespace dbsa::raster {

/// Measured error bounds of a raster approximation.
struct BoundCheck {
  /// Max distance from any point of an included cell to the polygon
  /// (sup over cell corners/centers) — bounds how far false positives are.
  double max_false_positive_dist = 0.0;
  /// Max distance from a sampled polygon point that is NOT covered by the
  /// approximation to the polygon boundary — bounds how far false
  /// negatives are (non-conservative mode only; 0 when fully covered).
  double max_false_negative_dist = 0.0;
  /// True iff the approximation covers every sampled polygon point
  /// (expected for conservative rasters).
  bool covers_polygon = true;
};

/// Checks a uniform raster against the source polygon. sample_step controls
/// the boundary/interior sampling density.
BoundCheck CheckBound(const geom::Polygon& poly, const Grid& grid,
                      const UniformRaster& ur, double sample_step);

/// Checks a hierarchical raster against the source polygon.
BoundCheck CheckBound(const geom::Polygon& poly, const Grid& grid,
                      const HierarchicalRaster& hr, double sample_step);

/// HR point lookup: the kind of the cell holding p's leaf key. The cells
/// are disjoint and sorted by id, so also by LeafKeyMin() (Section 3: a
/// cell's descendants form one contiguous leaf-key range): an upper_bound
/// on LeafKeyMin(), then a LeafKeyMax() check.
CellKind Classify(const HierarchicalRaster& hr, const geom::Point& p, const Grid& grid);

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_VERIFY_H_
