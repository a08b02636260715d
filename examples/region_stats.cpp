// region_stats: operational-planning analytics over regions (the taxi
// provider scenario of Section 2.2) — AVG fare and trip counts per
// region, computed approximately with guaranteed result ranges, and the
// trade-off between the distance bound and accuracy, measured against
// exact.
//
// Build & run:  ./build/examples/region_stats

#include <cstdio>
#include <memory>

#include "core/dbsa.h"
#include "util/stats.h"

int main() {
  using namespace dbsa;

  const geom::Box universe(0, 0, 16384, 16384);
  data::TaxiConfig city;
  city.universe = universe;
  const data::PointSet trips = data::GenerateTaxiPoints(400000, city);

  data::RegionConfig region_config = data::NeighborhoodsConfig(universe);
  region_config.num_polygons = 48;  // A workable report size.
  region_config.multi_fraction = 0.0;
  const data::RegionSet regions = data::GenerateRegions(region_config);

  const std::shared_ptr<const core::EngineState> state =
      core::BuildEngineState(trips, regions);
  const auto aggregate = [&](join::AggKind agg, core::Attr attr,
                             const query::ErrorBound& bound,
                             core::Mode mode = core::Mode::kAuto) {
    return core::ExecuteAggregate(*state, agg, attr, bound, mode);
  };
  using query::ErrorBound;

  // Exact reference once.
  const core::AggregateAnswer exact_count =
      aggregate(join::AggKind::kCount, core::Attr::kNone, ErrorBound::Exact());
  const core::AggregateAnswer exact_avg =
      aggregate(join::AggKind::kAvg, core::Attr::kFare, ErrorBound::Exact());

  std::printf("accuracy vs distance bound (point-index plan, no exact tests)\n");
  std::printf("eps (m) | elapsed (ms) | mean |count err| %% | mean |avg-fare err| %%\n");
  std::printf("--------+--------------+-------------------+---------------------\n");
  for (const double eps : {64.0, 16.0, 4.0, 1.0}) {
    const core::AggregateAnswer count = aggregate(
        join::AggKind::kCount, core::Attr::kNone, ErrorBound::Absolute(eps),
        core::Mode::kPointIndex);
    const core::AggregateAnswer avg = aggregate(
        join::AggKind::kAvg, core::Attr::kFare, ErrorBound::Absolute(eps),
        core::Mode::kPointIndex);
    RunningStats count_err, avg_err;
    for (size_t r = 0; r < regions.num_regions; ++r) {
      if (exact_count.rows[r].value > 0) {
        count_err.Add(100.0 *
                      std::fabs(count.rows[r].value - exact_count.rows[r].value) /
                      exact_count.rows[r].value);
      }
      if (exact_avg.rows[r].value > 0) {
        avg_err.Add(100.0 * std::fabs(avg.rows[r].value - exact_avg.rows[r].value) /
                    exact_avg.rows[r].value);
      }
    }
    std::printf("%7.1f | %12.2f | %17.4f | %19.5f\n", eps,
                count.stats.elapsed_ms + avg.stats.elapsed_ms, count_err.mean(),
                avg_err.mean());
  }

  // The report itself, at a 4 m bound with guaranteed ranges.
  std::printf("\nregional report (eps=4m, point-index plan with ranges)\n");
  const core::AggregateAnswer report =
      aggregate(join::AggKind::kCount, core::Attr::kNone, ErrorBound::Absolute(4.0),
                core::Mode::kPointIndex);
  const core::AggregateAnswer fares =
      aggregate(join::AggKind::kAvg, core::Attr::kFare, ErrorBound::Absolute(4.0),
                core::Mode::kPointIndex);
  std::printf("region | trips (range)            | avg fare (range)\n");
  std::printf("-------+--------------------------+-------------------------\n");
  for (size_t r = 0; r < 10 && r < regions.num_regions; ++r) {
    std::printf("%6zu | %8.0f [%8.0f,%8.0f] | $%.2f [$%.2f,$%.2f]\n", r,
                report.rows[r].value, report.rows[r].lo, report.rows[r].hi,
                fares.rows[r].value, fares.rows[r].lo, fares.rows[r].hi);
  }
  std::printf("... (%zu regions total)\n", regions.num_regions);
  return 0;
}
