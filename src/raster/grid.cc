#include "raster/grid.h"

#include <algorithm>
#include <cmath>

namespace dbsa::raster {

Grid::Grid(geom::Point origin, double side) : origin_(origin), side_(side) {
  DBSA_CHECK(side > 0.0);
}

Grid Grid::Covering(const geom::Box& bounds) {
  DBSA_CHECK(!bounds.IsEmpty());
  const double side = std::max(bounds.Width(), bounds.Height());
  const double margin = std::max(side, 1e-9) * 1e-6;
  return Grid({bounds.min.x - margin, bounds.min.y - margin},
              std::max(side, 1e-9) * (1.0 + 2e-6));
}

int Grid::LevelForEpsilon(double epsilon) const {
  DBSA_CHECK(epsilon > 0.0);
  // Smallest L with side / 2^L * sqrt(2) <= epsilon.
  const double ratio = side_ * kSqrt2 / epsilon;
  int level = static_cast<int>(std::ceil(std::log2(std::max(ratio, 1.0))));
  level = std::clamp(level, 0, CellId::kMaxLevel);
  // ceil(log2(ratio)) is computed in floating point: when the ratio sits at
  // (or within one ulp of) an exact power of two, the rounded logarithm can
  // land one level off in either direction — too coarse violates the
  // requested distance bound, too fine wastes cells. Snap to the smallest
  // level whose guarantee actually covers the request; only the kMaxLevel
  // clamp may leave AchievedEpsilon(level) above epsilon.
  while (level > 0 && AchievedEpsilon(level - 1) <= epsilon) --level;
  while (level < CellId::kMaxLevel && AchievedEpsilon(level) > epsilon) ++level;
  return level;
}

void Grid::PointToXY(const geom::Point& p, int level, uint32_t* ix, uint32_t* iy) const {
  const geom::Point f = CellCoords(p, level);
  const double max_idx = static_cast<double>(CellsPerSide(level)) - 1.0;
  *ix = static_cast<uint32_t>(std::clamp(std::floor(f.x), 0.0, max_idx));
  *iy = static_cast<uint32_t>(std::clamp(std::floor(f.y), 0.0, max_idx));
}

geom::Box Grid::CellBox(const CellId& cell) const {
  uint32_t ix = 0, iy = 0;
  cell.ToXY(&ix, &iy);
  return CellBoxXY(cell.level(), ix, iy);
}

geom::Box Grid::CellBoxXY(int level, uint32_t ix, uint32_t iy) const {
  const double cs = CellSize(level);
  const double x0 = origin_.x + cs * static_cast<double>(ix);
  const double y0 = origin_.y + cs * static_cast<double>(iy);
  return geom::Box(x0, y0, x0 + cs, y0 + cs);
}

}  // namespace dbsa::raster
