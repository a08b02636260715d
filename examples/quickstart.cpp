// Quickstart: the 60-second tour of dbsa.
//
//   1. Generate a synthetic city (points + regions).
//   2. Freeze both tables into an engine state (grid + point index).
//   3. Run the paper's aggregation query with a 10 m distance bound —
//      no exact geometric test is ever executed.
//   4. Compare against the exact answer and inspect the guarantees.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "core/dbsa.h"

int main() {
  using namespace dbsa;

  // 1. A 16.4 km synthetic city: 200K taxi pickups, 32 districts.
  data::TaxiConfig city;
  city.universe = geom::Box(0, 0, 16384, 16384);
  data::PointSet pickups = data::GenerateTaxiPoints(200000, city);

  data::RegionConfig district_config;
  district_config.universe = city.universe;
  district_config.num_polygons = 32;
  district_config.target_avg_vertices = 40;
  data::RegionSet districts = data::GenerateRegions(district_config);

  // 2. Build the engine state: covering grid and linearized point index.
  const std::shared_ptr<const core::EngineState> state =
      core::BuildEngineState(std::move(pickups), std::move(districts));

  // 3. COUNT(*) GROUP BY district, approximate with a 10 m bound. The
  //    optimizer picks the plan; stats.explain says why.
  const core::AggregateAnswer approx =
      core::ExecuteAggregate(*state, join::AggKind::kCount, core::Attr::kNone,
                             query::ErrorBound::Absolute(10.0));
  std::printf("plan: %s\n", query::PlanKindName(approx.stats.plan));
  std::printf("      %s\n", approx.stats.explain.c_str());
  std::printf("elapsed: %.2f ms, exact geometry tests: %zu, achieved bound: %.2f m\n\n",
              approx.stats.elapsed_ms, approx.stats.pip_tests,
              approx.stats.achieved_epsilon);

  // 4. Exact reference (an exact bound forces the exact plan).
  const core::AggregateAnswer exact = core::ExecuteAggregate(
      *state, join::AggKind::kCount, core::Attr::kNone, query::ErrorBound::Exact());

  std::printf("district | approx count | exact count | rel. error\n");
  std::printf("---------+--------------+-------------+-----------\n");
  for (size_t r = 0; r < 8 && r < approx.rows.size(); ++r) {
    const double a = approx.rows[r].value;
    const double e = exact.rows[r].value;
    std::printf("%8zu | %12.0f | %11.0f | %8.3f%%\n", r, a, e,
                e > 0 ? 100.0 * (a - e) / e : 0.0);
  }
  std::printf("... (%zu districts total)\n\n", approx.rows.size());

  // Bonus: an ad-hoc polygon count with a guaranteed result range.
  geom::Polygon query_region =
      geom::ParseWktPolygon(
          "POLYGON ((4000 4000, 12000 5000, 12000 12000, 8000 10000, 4000 12000, "
          "4000 4000))")
          .value();
  const join::ResultRange range =
      core::ExecuteCount(*state, query_region, query::ErrorBound::Absolute(25.0)).range;
  std::printf("ad-hoc region count: %.0f, guaranteed within [%.0f, %.0f]\n",
              range.estimate, range.lo, range.hi);
  return 0;
}
