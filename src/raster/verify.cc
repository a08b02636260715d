#include "raster/verify.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>

#include "geom/distance.h"

namespace dbsa::raster {

namespace {

// Max distance from the cell box to the polygon, probed at corners and
// center (distance-to-solid-region; 0 inside).
double CellMaxDistToPolygon(const geom::Polygon& poly, const geom::Box& box) {
  const geom::Point probes[5] = {box.min,
                                 {box.max.x, box.min.y},
                                 box.max,
                                 {box.min.x, box.max.y},
                                 box.Center()};
  double worst = 0.0;
  for (const geom::Point& p : probes) {
    worst = std::max(worst, geom::DistanceToPolygon(p, poly));
  }
  return worst;
}

// Distance from p to the nearest included cell, searched over growing
// Chebyshev rings of finest-level cells around p. classify() answers
// whether a point is covered by the approximation.
double DistToNearestIncluded(const geom::Point& p, const Grid& grid,
                             const std::function<CellKind(const geom::Point&)>& classify,
                             int probe_level, double give_up_dist) {
  const double cs = grid.CellSize(probe_level);
  uint32_t cx = 0, cy = 0;
  grid.PointToXY(p, probe_level, &cx, &cy);
  // Hard cap: beyond ~1K rings the answer is "far" (returns infinity).
  const int max_r =
      std::min(static_cast<int>(std::ceil(give_up_dist / cs)) + 2, 1024);
  const int64_t n = grid.CellsPerSide(probe_level);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r <= max_r; ++r) {
    // Once a hit exists, cells in farther rings cannot improve below
    // (r-1)*cs; stop when that exceeds the best found.
    if (best < static_cast<double>(r - 1) * cs) break;
    for (int64_t dx = -r; dx <= r; ++dx) {
      for (int64_t dy = -r; dy <= r; ++dy) {
        if (std::max(std::llabs(dx), std::llabs(dy)) != r) continue;
        const int64_t ix = static_cast<int64_t>(cx) + dx;
        const int64_t iy = static_cast<int64_t>(cy) + dy;
        if (ix < 0 || iy < 0 || ix >= n || iy >= n) continue;
        const geom::Box cell = grid.CellBoxXY(probe_level, static_cast<uint32_t>(ix),
                                              static_cast<uint32_t>(iy));
        if (classify(cell.Center()) != CellKind::kOutside) {
          best = std::min(best, cell.Distance(p));
        }
      }
    }
  }
  return best;
}

// classify() answers which cell kind of the approximation covers a point.
BoundCheck CheckImpl(const geom::Polygon& poly, const Grid& grid,
                     const std::function<CellKind(const geom::Point&)>& classify,
                     double sample_step, int boundary_level,
                     const std::function<void(const std::function<void(
                         const geom::Box&)>&)>& for_each_cell_box) {
  BoundCheck check;

  // False-positive side: every included cell must stay within the bound.
  for_each_cell_box([&](const geom::Box& box) {
    check.max_false_positive_dist =
        std::max(check.max_false_positive_dist, CellMaxDistToPolygon(poly, box));
  });

  // False-negative side: sampled polygon boundary points not covered by the
  // approximation measure the g -> g' Hausdorff direction.
  const double give_up = grid.CellDiagonal(boundary_level) * 4.0 + sample_step;
  auto probe = [&](const geom::Point& p) {
    if (classify(p) == CellKind::kOutside) {
      check.covers_polygon = false;
      const double d = DistToNearestIncluded(p, grid, classify, boundary_level, give_up);
      if (std::isfinite(d)) {
        check.max_false_negative_dist = std::max(check.max_false_negative_dist, d);
      }
    }
  };
  auto sample_ring = [&](const geom::Ring& ring) {
    const size_t n = ring.size();
    for (size_t i = 0; i < n; ++i) {
      const geom::Point& a = ring[i];
      const geom::Point& b = ring[(i + 1 == n) ? 0 : i + 1];
      probe(a);
      const double len = geom::Distance(a, b);
      const int k = static_cast<int>(std::ceil(len / sample_step));
      for (int j = 1; j < k; ++j) {
        probe(a + (b - a) * (static_cast<double>(j) / k));
      }
    }
  };
  sample_ring(poly.outer());
  for (const geom::Ring& h : poly.holes()) sample_ring(h);
  return check;
}

}  // namespace

BoundCheck CheckBound(const geom::Polygon& poly, const Grid& grid,
                      const UniformRaster& ur, double sample_step) {
  const int level = ur.level();
  return CheckImpl(
      poly, grid, [&](const geom::Point& p) { return ur.Classify(p, grid); },
      sample_step, level,
      [&](const std::function<void(const geom::Box&)>& fn) {
        auto visit = [&](const std::vector<uint64_t>& cells) {
          for (const uint64_t m : cells) {
            uint32_t ix = 0, iy = 0;
            sfc::MortonDecode(m, &ix, &iy);
            fn(grid.CellBoxXY(level, ix, iy));
          }
        };
        visit(ur.cover().interior);
        visit(ur.cover().boundary);
      });
}

BoundCheck CheckBound(const geom::Polygon& poly, const Grid& grid,
                      const HierarchicalRaster& hr, double sample_step) {
  if (hr.cells().empty()) {
    // Degenerate approximation (e.g. non-conservative raster of a sliver
    // thinner than the coverage threshold): nothing is covered.
    BoundCheck check;
    check.covers_polygon = false;
    check.max_false_negative_dist = std::numeric_limits<double>::infinity();
    return check;
  }
  // Probe the neighbourhood at the coarsest boundary-cell level (or the
  // coarsest cell at all, for boundary-free rasters) so the ring scan in
  // DistToNearestIncluded stays proportionate.
  int boundary_level = CellId::kMaxLevel;
  bool any_boundary = false;
  int coarsest = CellId::kMaxLevel;
  for (const HrCell& c : hr.cells()) {
    coarsest = std::min(coarsest, c.id.level());
    if (c.boundary) {
      boundary_level = std::min(boundary_level, c.id.level());
      any_boundary = true;
    }
  }
  if (!any_boundary) boundary_level = coarsest;
  return CheckImpl(
      poly, grid, [&](const geom::Point& p) { return Classify(hr, p, grid); },
      sample_step, boundary_level,
      [&](const std::function<void(const geom::Box&)>& fn) {
        for (const HrCell& c : hr.cells()) fn(grid.CellBox(c.id));
      });
}

CellKind Classify(const HierarchicalRaster& hr, const geom::Point& p, const Grid& grid) {
  const std::vector<HrCell>& cells = hr.cells();
  const uint64_t key = grid.LeafKey(p);
  const auto it = std::upper_bound(
      cells.begin(), cells.end(), key,
      [](uint64_t k, const HrCell& c) { return k < c.id.LeafKeyMin(); });
  if (it == cells.begin()) return CellKind::kOutside;
  const HrCell& cell = *std::prev(it);
  if (key > cell.id.LeafKeyMax()) return CellKind::kOutside;
  return cell.boundary ? CellKind::kBoundary : CellKind::kInterior;
}

}  // namespace dbsa::raster
