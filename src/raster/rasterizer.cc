#include "raster/rasterizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "geom/polygon_ops.h"

namespace dbsa::raster {

namespace {

inline uint64_t PackXY(uint32_t ix, uint32_t iy) {
  return (static_cast<uint64_t>(iy) << 32) | ix;
}

}  // namespace

void TraverseSegment(const geom::Point& a, const geom::Point& b, const Grid& grid,
                     int level, const std::function<void(uint32_t, uint32_t)>& visit) {
  // Segment endpoints in cell coordinates, through the map point keys use:
  // a point on a grid-aligned edge lands in a cell the traversal visits.
  const geom::Point ca = grid.CellCoords(a, level);
  const geom::Point cb = grid.CellCoords(b, level);
  const double ax = ca.x;
  const double ay = ca.y;
  const double bx = cb.x;
  const double by = cb.y;

  const double max_idx = static_cast<double>(grid.CellsPerSide(level) - 1);
  auto clamp_idx = [max_idx](double v) {
    return static_cast<int64_t>(std::clamp(std::floor(v), 0.0, max_idx));
  };

  int64_t ix = clamp_idx(ax);
  int64_t iy = clamp_idx(ay);
  const int64_t jx = clamp_idx(bx);
  const int64_t jy = clamp_idx(by);

  const double dx = bx - ax;
  const double dy = by - ay;
  const int64_t step_x = (dx > 0) ? 1 : ((dx < 0) ? -1 : 0);
  const int64_t step_y = (dy > 0) ? 1 : ((dy < 0) ? -1 : 0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double t_delta_x = (step_x != 0) ? std::fabs(1.0 / dx) : kInf;
  const double t_delta_y = (step_y != 0) ? std::fabs(1.0 / dy) : kInf;

  double t_max_x = kInf;
  if (step_x > 0) {
    t_max_x = (static_cast<double>(ix + 1) - ax) / dx;
  } else if (step_x < 0) {
    t_max_x = (static_cast<double>(ix) - ax) / dx;
  }
  double t_max_y = kInf;
  if (step_y > 0) {
    t_max_y = (static_cast<double>(iy + 1) - ay) / dy;
  } else if (step_y < 0) {
    t_max_y = (static_cast<double>(iy) - ay) / dy;
  }

  // Upper bound on steps: the L1 cell distance plus slack for corner cases.
  int64_t guard = std::llabs(jx - ix) + std::llabs(jy - iy) + 4;
  visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy));
  while ((ix != jx || iy != jy) && guard-- > 0) {
    if (t_max_x < t_max_y) {
      ix += step_x;
      t_max_x += t_delta_x;
    } else if (t_max_y < t_max_x) {
      iy += step_y;
      t_max_y += t_delta_y;
    } else {
      // Exact corner crossing: include both side cells (supercover), then
      // step diagonally.
      if (ix + step_x >= 0 && ix + step_x <= static_cast<int64_t>(max_idx)) {
        visit(static_cast<uint32_t>(ix + step_x), static_cast<uint32_t>(iy));
      }
      if (iy + step_y >= 0 && iy + step_y <= static_cast<int64_t>(max_idx)) {
        visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy + step_y));
      }
      ix += step_x;
      iy += step_y;
      t_max_x += t_delta_x;
      t_max_y += t_delta_y;
      guard -= 1;
    }
    ix = std::clamp<int64_t>(ix, 0, static_cast<int64_t>(max_idx));
    iy = std::clamp<int64_t>(iy, 0, static_cast<int64_t>(max_idx));
    visit(static_cast<uint32_t>(ix), static_cast<uint32_t>(iy));
  }
}

CellCover RasterizePolygon(const geom::Polygon& poly, const Grid& grid, int level,
                           const RasterOptions& opts) {
  CellCover cover;
  cover.level = level;
  if (poly.outer().size() < 3) return cover;

  // Pass 1: boundary cells via supercover traversal of every edge.
  std::unordered_set<uint64_t> boundary_set;
  poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
    TraverseSegment(a, b, grid, level,
                    [&](uint32_t ix, uint32_t iy) { boundary_set.insert(PackXY(ix, iy)); });
  });

  // Pass 2: interior cells via scanline parity at cell-center rows.
  const double cs = grid.CellSize(level);
  uint32_t bx0, by0, bx1, by1;
  grid.PointToXY(poly.bounds().min, level, &bx0, &by0);
  grid.PointToXY(poly.bounds().max, level, &bx1, &by1);

  std::vector<double> xs;
  for (uint32_t iy = by0; iy <= by1; ++iy) {
    const double y = grid.origin().y + (static_cast<double>(iy) + 0.5) * cs;
    xs.clear();
    poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
      if ((a.y > y) != (b.y > y)) {
        xs.push_back(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
      }
    });
    if (xs.size() < 2) continue;
    std::sort(xs.begin(), xs.end());
    for (size_t k = 0; k + 1 < xs.size(); k += 2) {
      // Cells whose center x lies in (xs[k], xs[k+1]).
      const double fx0 = (xs[k] - grid.origin().x) / cs - 0.5;
      const double fx1 = (xs[k + 1] - grid.origin().x) / cs - 0.5;
      int64_t lo = static_cast<int64_t>(std::ceil(fx0));
      int64_t hi = static_cast<int64_t>(std::floor(fx1));
      lo = std::max<int64_t>(lo, bx0);
      hi = std::min<int64_t>(hi, bx1);
      for (int64_t ix = lo; ix <= hi; ++ix) {
        const uint64_t key = PackXY(static_cast<uint32_t>(ix), iy);
        if (!boundary_set.count(key)) {
          cover.interior.push_back(
              sfc::MortonEncode(static_cast<uint32_t>(ix), iy));
        }
      }
    }
  }

  // Boundary filtering (non-conservative mode drops low-coverage cells).
  cover.boundary.reserve(boundary_set.size());
  // dbsa-lint-allow(determinism): membership-filter walk — the result is
  // sorted below before anything downstream can observe an order.
  for (const uint64_t key : boundary_set) {
    const uint32_t ix = static_cast<uint32_t>(key & 0xffffffffu);
    const uint32_t iy = static_cast<uint32_t>(key >> 32);
    if (!opts.conservative) {
      const geom::Box cell_box = grid.CellBoxXY(level, ix, iy);
      if (geom::BoxCoverageFraction(poly, cell_box) < opts.min_coverage) continue;
    }
    cover.boundary.push_back(sfc::MortonEncode(ix, iy));
  }

  std::sort(cover.interior.begin(), cover.interior.end());
  std::sort(cover.boundary.begin(), cover.boundary.end());
  return cover;
}

}  // namespace dbsa::raster
