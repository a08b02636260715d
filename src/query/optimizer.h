// The Section 4 optimization layer: a region aggregation is answered by
// one of two physical plans, both with a guaranteed result range — the
// point-index join (Section 3 probe, Section 6 range) or the exact
// filter-and-refine join. A simple cost model picks one from the query
// parameters (distance bound, input cardinalities, polygon complexity)
// and explains its choice.

#ifndef DBSA_QUERY_OPTIMIZER_H_
#define DBSA_QUERY_OPTIMIZER_H_

#include <cstddef>
#include <string>

namespace dbsa::query {

/// Physical strategies for the spatial aggregation query.
enum class PlanKind {
  kPointIndexJoin,  ///< Linearized point index + HR query cells (Sec. 3).
  kExactRStar,      ///< Exact filter-and-refine (baseline).
};

const char* PlanKindName(PlanKind kind);

/// Workload description handed to the optimizer: the base tables and the
/// bound, nothing about the deployment — so every execution path resolves
/// a query to the same plan.
struct QueryProfile {
  size_t num_points = 0;
  size_t num_polygons = 0;
  double avg_vertices = 0.0;       ///< Polygon complexity drives PIP cost.
  double epsilon = 0.0;            ///< 0 = exact required.
  double total_perimeter = 0.0;    ///< Sum over polygons (boundary cells).
  double total_polygon_area = 0.0;
};

/// A costed plan choice.
struct PlanChoice {
  PlanKind kind = PlanKind::kExactRStar;
  double est_cost = 0.0;       ///< Abstract cost units.
  std::string explain;         ///< EXPLAIN-style text for both options.
};

/// Per-plan cost estimates (exposed for tests and the EXPLAIN output).
struct PlanCosts {
  double point_index = 0.0;
  double exact = 0.0;
};

/// Estimates abstract costs for both plans.
PlanCosts EstimateCosts(const QueryProfile& profile);

/// Picks the cheaper plan. If epsilon == 0 only the exact plan qualifies.
PlanChoice ChoosePlan(const QueryProfile& profile);

}  // namespace dbsa::query

#endif  // DBSA_QUERY_OPTIMIZER_H_
