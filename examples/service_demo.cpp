// Service demo: the v2 query envelope in ~60 seconds.
//
//   1. Generate a synthetic city and freeze it into an immutable snapshot.
//   2. Stand up a QueryService: a thread pool plus a memory-budgeted LRU
//      cache of HR approximations shared across queries and threads.
//   3. Build Query descriptors with typed distance bounds (ErrorBound):
//      an absolute Hausdorff bound, a pinned grid level, and exact.
//   4. Read the ACHIEVED side of the contract off each Result — epsilon
//      actually guaranteed, HR level served, cells touched, cache hits —
//      the paper's bound as an observable, not a float argument.
//
// Exits 1 if any query fails, so CI sees a failed query.
//
// Build & run:  ./build/example_service_demo

#include <cstdio>
#include <future>
#include <vector>

#include "core/dbsa.h"

int main() {
  using namespace dbsa;

  // 1. The city: 200K taxi pickups, 64 districts.
  data::TaxiConfig city;
  city.universe = geom::Box(0, 0, 16384, 16384);
  data::PointSet pickups = data::GenerateTaxiPoints(200000, city);

  data::RegionConfig district_config;
  district_config.universe = city.universe;
  district_config.num_polygons = 64;
  district_config.target_avg_vertices = 40;
  data::RegionSet districts = data::GenerateRegions(district_config);

  const auto snapshot =
      core::BuildEngineState(std::move(pickups), std::move(districts));

  // 2. The service: 8 worker threads, 64 MB approximation budget.
  service::ServiceOptions options;
  options.num_threads = 8;
  options.cache_budget_bytes = size_t{64} << 20;
  service::QueryService service(snapshot, options);
  std::printf("service up: %zu threads, %.0f MB cache budget\n",
              service.num_threads(),
              static_cast<double>(options.cache_budget_bytes) / (1 << 20));

  service.WarmCache(/*epsilon=*/10.0);

  // 3. One envelope, three bound regimes.
  service::ExecOptions within_10m;  // "anything within 10 map units".
  within_10m.bound = query::ErrorBound::Absolute(10.0);
  within_10m.mode = core::Mode::kPointIndex;

  service::ExecOptions at_level;  // "serve raster level 9, exactly".
  at_level.bound = query::ErrorBound::AtLevel(9);

  service::ExecOptions exact;  // "no approximation at all".
  exact.bound = query::ErrorBound::Exact();

  std::vector<std::future<service::Result>> futures;  // In submission order.
  for (int burst = 0; burst < 3; ++burst) {
    futures.push_back(
        service.Execute(service::Query::Aggregate(join::AggKind::kCount), within_10m));
    futures.push_back(service.Execute(
        service::Query::Aggregate(join::AggKind::kSum, core::Attr::kFare),
        within_10m));
  }
  geom::Polygon viewport = geom::ParseWktPolygon(
                               "POLYGON ((4000 4000, 12000 5000, 12000 12000, "
                               "8000 10000, 4000 12000, 4000 4000))")
                               .value();
  futures.push_back(service.Execute(service::Query::Count(viewport), at_level));
  futures.push_back(service.Execute(service::Query::Count(viewport), exact));
  futures.push_back(service.Execute(service::Query::Select(viewport), at_level));

  // 4. Wait for each Result and read the achieved bound off it.
  size_t failed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const service::Result r = futures[i].get();
    if (!r.ok()) {
      std::printf("#%zu FAILED: %s\n", i, r.status.ToString().c_str());
      ++failed;
      continue;
    }
    const service::BoundReport& b = r.bound;
    switch (r.kind) {
      case service::QueryKind::kAggregate:
        std::printf(
            "#%zu %-14s rows=%zu  asked %s, served eps<=%.3f (level %d), "
            "%zu cells, cache %zu/%zu hit/miss\n",
            i, query::PlanKindName(r.aggregate.stats.plan), r.aggregate.rows.size(),
            b.requested.ToString().c_str(), b.epsilon_achieved, b.hr_level,
            b.cells_touched, b.hr_cache_hits, b.hr_cache_misses);
        break;
      case service::QueryKind::kCount:
        std::printf(
            "#%zu viewport count  %.0f in [%.0f, %.0f]  asked %s, served "
            "eps<=%.3f (level %d)\n",
            i, r.range.estimate, r.range.lo, r.range.hi,
            b.requested.ToString().c_str(), b.epsilon_achieved, b.hr_level);
        break;
      case service::QueryKind::kSelect:
        std::printf("#%zu select          %zu ids  (%s via %s path)\n", i,
                    r.ids.size(), b.requested.ToString().c_str(),
                    ExecPathName(b.path));
        break;
    }
  }

  // The amortization story.
  const service::ApproxCache::Stats stats = service.cache_stats();
  std::printf(
      "\ncache: %zu entries, %.1f MB used, %zu hits / %zu misses "
      "(%.0f%% hit ratio)\n",
      stats.entries, static_cast<double>(stats.bytes_used) / (1 << 20), stats.hits,
      stats.misses, 100.0 * stats.HitRatio());
  if (failed > 0) {
    std::printf("FAILED: %zu of %zu queries\n", failed, futures.size());
    return 1;
  }
  return 0;
}
