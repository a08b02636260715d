#include "raster/hierarchical_raster.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "raster/rasterizer.h"

#include "geom/polygon_ops.h"

namespace dbsa::raster {

namespace {

// The smallest cell that holds the polygon's bounding box. Level 0 (the
// universe) holds every box, so the loop ends.
CellId StartCell(const geom::Polygon& poly, const Grid& grid) {
  const CellId lo = CellId::FromLeafKey(grid.LeafKey(poly.bounds().min));
  const CellId hi = CellId::FromLeafKey(grid.LeafKey(poly.bounds().max));
  int level = CellId::kMaxLevel;
  while (lo.Parent(level) != hi.Parent(level)) --level;
  return lo.Parent(level);
}

}  // namespace

HierarchicalRaster HierarchicalRaster::BuildEpsilon(const geom::Polygon& poly,
                                                    const Grid& grid, double epsilon,
                                                    const RasterOptions& opts) {
  const int max_level = grid.LevelForEpsilon(epsilon);
  // Boundary cells sit at max_level, so the search starts no finer.
  CellId start = StartCell(poly, grid);
  if (start.level() > max_level) start = start.Parent(max_level);

  // Per-level boundary cells (prefix -> present), from edge supercover.
  // Total work is O(perimeter / finest cell size), independent of area.
  std::vector<std::unordered_set<uint64_t>> boundary_by_level(
      static_cast<size_t>(max_level + 1));
  for (int l = start.level(); l <= max_level; ++l) {
    auto& set = boundary_by_level[static_cast<size_t>(l)];
    poly.ForEachEdge([&](const geom::Point& a, const geom::Point& b) {
      TraverseSegment(a, b, grid, l, [&](uint32_t ix, uint32_t iy) {
        set.insert(sfc::MortonEncode(ix, iy));
      });
    });
  }

  std::vector<HrCell> out;
  // Iterative DFS over descendants of boundary cells.
  std::vector<std::pair<int, uint64_t>> stack;  // (level, morton prefix).
  stack.push_back({start.level(), start.prefix()});
  while (!stack.empty()) {
    const auto [l, prefix] = stack.back();
    stack.pop_back();
    const bool is_boundary = boundary_by_level[static_cast<size_t>(l)].count(prefix) > 0;
    if (!is_boundary) {
      // Off-boundary cell: homogeneous; its center decides.
      uint32_t ix, iy;
      sfc::MortonDecode(prefix, &ix, &iy);
      if (poly.Contains(grid.CellBoxXY(l, ix, iy).Center())) {
        out.push_back({CellId::FromLevelPrefix(l, prefix), /*boundary=*/false});
      }
      continue;
    }
    if (l == max_level) {
      if (!opts.conservative) {
        uint32_t ix, iy;
        sfc::MortonDecode(prefix, &ix, &iy);
        if (geom::BoxCoverageFraction(poly, grid.CellBoxXY(l, ix, iy)) <
            opts.min_coverage) {
          continue;
        }
      }
      out.push_back({CellId::FromLevelPrefix(l, prefix), /*boundary=*/true});
      continue;
    }
    for (uint64_t child = 0; child < 4; ++child) {
      stack.push_back({l + 1, (prefix << 2) | child});
    }
  }

  HierarchicalRaster hr;
  hr.FinalizeFrom(std::move(out));
  return hr;
}

HierarchicalRaster HierarchicalRaster::BuildLevel(const geom::Polygon& poly,
                                                  const Grid& grid, int level,
                                                  const RasterOptions& opts) {
  // AchievedEpsilon(level) is exactly the cell diagonal, so LevelForEpsilon
  // maps it back to `level`.
  return BuildEpsilon(poly, grid, grid.AchievedEpsilon(level), opts);
}

HierarchicalRaster HierarchicalRaster::BuildBudget(const geom::Polygon& poly,
                                                   const Grid& grid, size_t max_cells,
                                                   const RasterOptions& opts) {
  std::deque<CellId> queue;
  queue.push_back(StartCell(poly, grid));

  std::vector<HrCell> out;
  while (!queue.empty()) {
    const CellId cell = queue.front();
    queue.pop_front();
    const geom::Box box = grid.CellBox(cell);
    const geom::BoxRelation rel = geom::ClassifyBox(poly, box);
    if (rel == geom::BoxRelation::kOutside) continue;
    if (rel == geom::BoxRelation::kInside) {
      out.push_back({cell, /*boundary=*/false});
      continue;
    }
    // Boundary cell: refine breadth-first while the budget allows (a split
    // nets at most +3 cells).
    const size_t current_total = out.size() + queue.size() + 1;
    if (cell.level() < CellId::kMaxLevel && current_total + 3 <= max_cells) {
      for (int i = 0; i < 4; ++i) queue.push_back(cell.Child(i));
    } else {
      if (!opts.conservative &&
          geom::BoxCoverageFraction(poly, box) < opts.min_coverage) {
        continue;
      }
      out.push_back({cell, /*boundary=*/true});
    }
  }

  HierarchicalRaster hr;
  hr.FinalizeFrom(std::move(out));
  return hr;
}

void HierarchicalRaster::FinalizeFrom(std::vector<HrCell> cells) {
  std::sort(cells.begin(), cells.end(),
            [](const HrCell& a, const HrCell& b) { return a.id < b.id; });
  cells_ = std::move(cells);
  // Builders grow `cells` by push_back; drop the slack so that the bytes
  // an HR holds are the MemoryBytes() the ApproxCache charges for it.
  cells_.shrink_to_fit();
}

double HierarchicalRaster::AchievedEpsilon(const Grid& grid) const {
  int coarsest_boundary = CellId::kMaxLevel;
  bool any = false;
  for (const HrCell& c : cells_) {
    if (c.boundary) {
      coarsest_boundary = std::min(coarsest_boundary, c.id.level());
      any = true;
    }
  }
  return any ? grid.CellDiagonal(coarsest_boundary) : 0.0;
}

}  // namespace dbsa::raster
