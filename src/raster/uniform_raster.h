// Uniform Raster (UR) approximation — Figure 1(b) of the paper: a polygon
// represented by equi-sized cells at a single grid level, chosen so the
// cell diagonal is at most the requested distance bound epsilon.

#ifndef DBSA_RASTER_UNIFORM_RASTER_H_
#define DBSA_RASTER_UNIFORM_RASTER_H_

#include "raster/rasterizer.h"

namespace dbsa::raster {

/// Classification of a point against a raster approximation.
enum class CellKind {
  kOutside = 0,
  kBoundary = 1,  ///< In a cell overlapping the polygon boundary.
  kInterior = 2,  ///< In a cell fully inside the polygon.
};

/// An epsilon-bounded uniform raster approximation of one polygon.
class UniformRaster {
 public:
  /// Builds with the level implied by epsilon (d_H(g, g') <= epsilon).
  static UniformRaster Build(const geom::Polygon& poly, const Grid& grid,
                             double epsilon, const RasterOptions& opts = {});

  /// Builds at an explicit level.
  static UniformRaster BuildAtLevel(const geom::Polygon& poly, const Grid& grid,
                                    int level, const RasterOptions& opts = {});

  int level() const { return cover_.level; }
  const CellCover& cover() const { return cover_; }

  /// Classifies a point (binary search over the sorted cell sets).
  CellKind Classify(const geom::Point& p, const Grid& grid) const;

  /// The approximate containment answer: true for interior or boundary
  /// cells. No exact geometric test is performed.
  bool ApproxContains(const geom::Point& p, const Grid& grid) const {
    return Classify(p, grid) != CellKind::kOutside;
  }

 private:
  CellCover cover_;
};

}  // namespace dbsa::raster

#endif  // DBSA_RASTER_UNIFORM_RASTER_H_
