// taxi_dashboard: the paper's motivating application (Section 1) — an
// Uber-Movement-style level-of-detail exploration. The user starts at a
// city-wide overview and zooms toward a hotspot; each zoom level needs
// pixel accuracy only, so the distance bound tightens with the viewport
// (epsilon = one screen pixel) and the engine answers each level without
// exact geometry tests.
//
// Build & run:  ./build/examples/taxi_dashboard

#include <cstdio>
#include <memory>

#include "core/dbsa.h"
#include "util/timer.h"

int main() {
  using namespace dbsa;

  const geom::Box universe(0, 0, 16384, 16384);
  data::TaxiConfig city;
  city.universe = universe;
  const data::PointSet pickups = data::GenerateTaxiPoints(500000, city);

  data::RegionConfig region_config;
  region_config.universe = universe;
  region_config.num_polygons = 64;
  region_config.target_avg_vertices = 30;
  const data::RegionSet districts = data::GenerateRegions(region_config);

  const std::shared_ptr<const core::EngineState> state =
      core::BuildEngineState(pickups, districts);

  // Zoom from the full city toward the downtown hotspot; a 1024px screen.
  const geom::Point downtown{16384 * 0.45, 16384 * 0.55};
  const auto zoom_steps = data::MakeZoomSequence(universe, downtown, 6, 1024);

  std::printf("level-of-detail exploration (screen: 1024px)\n");
  std::printf("zoom | viewport (km) | eps (m) | visible pickups | latency (ms)\n");
  std::printf("-----+---------------+---------+-----------------+-------------\n");
  for (size_t z = 0; z < zoom_steps.size(); ++z) {
    const data::ZoomStep& step = zoom_steps[z];
    // The visible viewport as a query polygon.
    geom::Polygon viewport_poly(geom::Ring{step.viewport.min,
                                           {step.viewport.max.x, step.viewport.min.y},
                                           step.viewport.max,
                                           {step.viewport.min.x, step.viewport.max.y}});
    viewport_poly.Normalize();
    Timer timer;
    const join::ResultRange visible =
        core::ExecuteCount(*state, viewport_poly,
                           query::ErrorBound::Absolute(step.epsilon))
            .range;
    const double ms = timer.Millis();
    std::printf("%4zu | %13.2f | %7.2f | %15.0f | %12.3f\n", z,
                step.viewport.Width() / 1000.0, step.epsilon, visible.estimate, ms);
  }

  // At the deepest zoom, break the viewport down by district with the
  // same pixel-level bound (the "choropleth" view).
  const data::ZoomStep& deepest = zoom_steps.back();
  std::printf("\nchoropleth at zoom %zu (eps=%.2fm): top districts by pickups\n",
              zoom_steps.size() - 1, deepest.epsilon);
  const core::AggregateAnswer per_district =
      core::ExecuteAggregate(*state, join::AggKind::kCount, core::Attr::kNone,
                             query::ErrorBound::Absolute(deepest.epsilon));
  // Report the three busiest districts.
  std::vector<core::AggregateRow> rows = per_district.rows;
  std::sort(rows.begin(), rows.end(),
            [](const core::AggregateRow& a, const core::AggregateRow& b) {
              return a.value > b.value;
            });
  for (size_t i = 0; i < 3 && i < rows.size(); ++i) {
    std::printf("  district %u: ~%.0f pickups (guaranteed within [%.0f, %.0f])\n",
                rows[i].region, rows[i].value, rows[i].lo, rows[i].hi);
  }
  std::printf("plan used: %s\n", query::PlanKindName(per_district.stats.plan));
  return 0;
}
