#include "query/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dbsa::query {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kPointIndexJoin:
      return "POINT-INDEX-JOIN";
    case PlanKind::kExactRStar:
      return "EXACT-RSTAR";
  }
  return "?";
}

PlanCosts EstimateCosts(const QueryProfile& p) {
  PlanCosts c;
  const double n = static_cast<double>(p.num_points);
  const double m = static_cast<double>(std::max<size_t>(p.num_polygons, 1));
  const double eps = std::max(p.epsilon, 1e-9);
  const double cell = eps / 1.4142135623730951;

  // Boundary cells per polygon set ~ total perimeter / cell side; interior
  // cells collapse logarithmically in the HR.
  const double boundary_cells = p.total_perimeter / cell;
  const double interior_cells =
      p.total_polygon_area > 0 ? p.total_polygon_area / (cell * cell) : 0.0;
  const double hr_cells = boundary_cells + std::max(1.0, std::log2(interior_cells + 2));

  // Abstract unit = one simple memory/compare operation.
  constexpr double kSearch = 2.0;      // Per log2 step of a bounded search.
  constexpr double kPipPerVertex = 1.5;

  // Point-index join: at most two bounded searches per query cell. The
  // probe walks runs of key-adjacent cells and needs fewer, but the runs
  // are not known before the HR exists, so the upper bound is priced. The
  // index is built with the state and the serving layer caches the region
  // HRs, so neither build is charged to the query.
  c.point_index = 2.0 * hr_cells * kSearch * std::log2(n + 2);

  // Exact filter-and-refine: every point PIP-tested against candidate
  // polygons (~1.3 candidates with an R* over MBRs of a tiling set).
  c.exact = n * (std::log2(m + 2) * kSearch + 1.3 * p.avg_vertices * kPipPerVertex);
  return c;
}

PlanChoice ChoosePlan(const QueryProfile& p) {
  const PlanCosts c = EstimateCosts(p);
  PlanChoice choice;
  char buf[512];

  if (p.epsilon <= 0.0) {
    choice.kind = PlanKind::kExactRStar;
    choice.est_cost = c.exact;
    std::snprintf(buf, sizeof(buf),
                  "epsilon=0 (exact required) -> %s (cost %.3g); approximate plans "
                  "not applicable",
                  PlanKindName(choice.kind), c.exact);
    choice.explain = buf;
    return choice;
  }

  const bool index = c.point_index <= c.exact;
  choice.kind = index ? PlanKind::kPointIndexJoin : PlanKind::kExactRStar;
  choice.est_cost = index ? c.point_index : c.exact;
  std::snprintf(buf, sizeof(buf),
                "candidates: POINT-INDEX=%.3g EXACT=%.3g (n=%zu, polys=%zu, "
                "avg_vertices=%.1f, eps=%.3g) -> %s",
                c.point_index, c.exact, p.num_points, p.num_polygons, p.avg_vertices,
                p.epsilon, PlanKindName(choice.kind));
  choice.explain = buf;
  return choice;
}

}  // namespace dbsa::query
