// Acceptance tests for the query envelope:
//
//   * every query kind runs through the envelope on all four execution
//     paths — single-threaded engine, pooled service, in-process sharded,
//     loopback transport seam — with BYTE-IDENTICAL payloads under every
//     mode, kAuto included, and every Result reports the achieved
//     epsilon / HR level;
//   * ErrorBound semantics: kGridLevel pins the HR level exactly,
//     kAbsoluteDistance reproduces Grid::LevelForEpsilon snapping (one-ulp
//     sweep), kExact answers equal brute force on adversarial polygons
//     and report no approximation;
//   * malformed envelopes answer typed statuses, and telemetry only
//     observes: the always-traced service answers what the untraced core
//     executors answer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dbsa.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

using dbsa::testing::ExecuteAll;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::Submission;
using query::ErrorBound;

class QueryEnvelopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
    // Fares stay RAW (non-dyadic): with the compensated SUM pipeline the
    // byte-identity contract no longer needs quantized attributes.
    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 16;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;
    data::RegionSet regions = data::GenerateRegions(region_config);
    state_ = core::BuildEngineState(std::move(points), std::move(regions));
  }

  /// The mixed workload: every query kind under every bound regime, with
  /// aggregates both pinned to the point index and under kAuto (which
  /// resolves from the base tables and the bound, so identically on every
  /// path), plus MIN/MAX, which take the exact reroute.
  std::vector<Submission> Workload() const {
    std::vector<Submission> subs;
    const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
    const geom::Polygon rect = MakeRectPolygon(600, 700, 1800, 1500);
    const std::vector<ErrorBound> bounds = {
        ErrorBound::Absolute(4.0), ErrorBound::Absolute(16.0),
        ErrorBound::AtLevel(8)};
    for (const ErrorBound& bound : bounds) {
      for (const core::Mode mode : {core::Mode::kPointIndex, core::Mode::kAuto}) {
        ExecOptions options;
        options.bound = bound;
        options.mode = mode;
        subs.push_back({Query::Aggregate(join::AggKind::kCount), options,
                        "count-agg " + bound.ToString()});
        subs.push_back(
            {Query::Aggregate(join::AggKind::kSum, core::Attr::kFare), options,
             "sum-agg " + bound.ToString()});
        subs.push_back(
            {Query::Aggregate(join::AggKind::kAvg, core::Attr::kFare), options,
             "avg-agg " + bound.ToString()});
      }
      ExecOptions options;
      options.bound = bound;
      subs.push_back({Query::Count(star), options, "count " + bound.ToString()});
      subs.push_back({Query::Count(rect), options, "count " + bound.ToString()});
      subs.push_back({Query::Select(star), options, "select " + bound.ToString()});
    }
    ExecOptions within_8;
    within_8.bound = ErrorBound::Absolute(8.0);
    subs.push_back({Query::Aggregate(join::AggKind::kMin, core::Attr::kFare), within_8,
                    "min-agg " + within_8.bound.ToString()});
    subs.push_back({Query::Aggregate(join::AggKind::kMax, core::Attr::kFare), within_8,
                    "max-agg " + within_8.bound.ToString()});
    // The exact regime: aggregates run the exact plan, ad-hoc queries
    // refine the boundary cells of an approximation on the base state.
    const geom::Polygon holed = dbsa::testing::MakeStarPolygonWithHole(
        {2000, 2000}, 400, 900, 16, 11);
    ExecOptions exact;
    exact.bound = ErrorBound::Exact();
    subs.push_back({Query::Aggregate(join::AggKind::kCount), exact, "exact agg"});
    subs.push_back({Query::Count(star), exact, "exact count"});
    subs.push_back({Query::Select(star), exact, "exact select"});
    subs.push_back({Query::Count(holed), exact, "exact count holed"});
    subs.push_back({Query::Select(holed), exact, "exact select holed"});
    return subs;
  }

  /// Shapes that stress the exact refine: a hole, a sliver, a shape
  /// reaching past the universe, one covering it, one inside a single
  /// finest cell, and a 2,000-vertex ring.
  std::vector<std::pair<std::string, geom::Polygon>> AdversarialPolygons() const {
    const raster::Grid& grid = state_->grid;
    std::vector<std::pair<std::string, geom::Polygon>> polys;
    polys.emplace_back("star", MakeStarPolygon({2000, 2000}, 400, 900, 16, 11));
    polys.emplace_back("holed star", dbsa::testing::MakeStarPolygonWithHole(
                                         {2000, 2000}, 400, 900, 16, 11));
    geom::Polygon sliver(
        geom::Ring{{100, 1000}, {4000, 1010}, {4000, 1013}, {100, 1003}});
    sliver.Normalize();
    polys.emplace_back("sliver", sliver);
    polys.emplace_back("past the universe",
                       MakeStarPolygon({100, 3900}, 300, 1200, 24, 5));
    const geom::Box universe = grid.universe();
    polys.emplace_back("universe-covering square",
                       MakeRectPolygon(universe.min.x - 1, universe.min.y - 1,
                                       universe.max.x + 1, universe.max.y + 1));
    // A square in the middle of one data point's finest cell, around it.
    for (const geom::Point& p : state_->points->locs) {
      const geom::Box cell =
          grid.CellBox(grid.PointToCell(p, raster::CellId::kMaxLevel));
      const double margin = cell.Width() / 4;
      if (p.x - cell.min.x > margin && cell.max.x - p.x > margin &&
          p.y - cell.min.y > margin && cell.max.y - p.y > margin) {
        polys.emplace_back("inside one finest cell",
                           MakeRectPolygon(cell.min.x + margin / 2,
                                           cell.min.y + margin / 2,
                                           cell.max.x - margin / 2,
                                           cell.max.y - margin / 2));
        break;
      }
    }
    polys.emplace_back("2000-vertex star",
                       MakeStarPolygon({2000, 2000}, 300, 1500, 2000, 7));
    return polys;
  }

  static void ExpectIdentical(const Result& got, const Result& want,
                              const std::string& label) {
    dbsa::testing::ExpectSamePayload(got, want, label);
    // The achieved contract is part of the payload identity: every path
    // must report the same served bound.
    EXPECT_EQ(got.bound.epsilon_achieved, want.bound.epsilon_achieved) << label;
    EXPECT_EQ(got.bound.hr_level, want.bound.hr_level) << label;
    EXPECT_EQ(got.bound.requested, want.bound.requested) << label;
  }

  std::shared_ptr<const core::EngineState> state_;
};

// ---- the four-path byte-identity contract, restated over v2 ------------

TEST_F(QueryEnvelopeTest, EveryKindByteIdenticalOnAllFourPaths) {
  const std::vector<Submission> workload = Workload();
  std::vector<Result> baseline;
  baseline.reserve(workload.size());
  // Path 1: the single-threaded engine — the core executors, no service.
  for (const Submission& sub : workload) {
    baseline.push_back(dbsa::testing::Reference(*state_, sub));
  }

  struct PathConfig {
    std::string name;
    ServiceOptions options;
    ExecPath expected_path;
  };
  std::vector<PathConfig> paths;
  {
    PathConfig pooled;
    pooled.name = "pooled";
    pooled.options.num_threads = 8;
    pooled.expected_path = ExecPath::kLocal;
    paths.push_back(pooled);
    PathConfig sharded;
    sharded.name = "sharded";
    sharded.options.num_threads = 8;
    sharded.options.num_shards = 7;
    sharded.expected_path = ExecPath::kSharded;
    paths.push_back(sharded);
    PathConfig seam;
    seam.name = "transport";
    seam.options.num_threads = 8;
    seam.options.num_shards = 7;
    seam.options.use_transport = true;
    seam.expected_path = ExecPath::kTransport;
    paths.push_back(seam);
    // One shard server: the remote source's single-shard gather.
    seam.name = "transport k=1";
    seam.options.num_shards = 1;
    paths.push_back(seam);
  }

  for (const PathConfig& path : paths) {
    QueryService service(state_, path.options);
    EXPECT_EQ(service.exec_path(), path.expected_path) << path.name;
    const std::vector<Result> results = ExecuteAll(service, workload);
    ASSERT_EQ(results.size(), workload.size()) << path.name;
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].bound.path, path.expected_path)
          << path.name << " " << workload[i].label;
      ExpectIdentical(results[i], baseline[i],
                      path.name + " " + workload[i].label);
      // Provenance consistency: every approximate query on a scattered
      // path must report its surviving shards — selects included
      // (regression: the transport select path used to report 0).
      if (path.expected_path != ExecPath::kLocal &&
          !workload[i].options.bound.exact() &&
          results[i].kind != QueryKind::kAggregate) {
        EXPECT_GT(results[i].bound.shards_probed, 0u)
            << path.name << " " << workload[i].label;
      }
    }
  }
}

TEST_F(QueryEnvelopeTest, CountAndSelectReportConsistentProvenance) {
  // cells_touched uses per-shard-slice accounting on every scattered path
  // and for every query kind (regression: selects used to report the raw
  // approximation cell count while counts reported slice cells). The
  // unsharded path probes no shards and counts the approximation's cells.
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  ExecOptions options;
  options.bound = ErrorBound::Absolute(4.0);
  for (const ExecPath path :
       {ExecPath::kLocal, ExecPath::kSharded, ExecPath::kTransport}) {
    ServiceOptions service_options;
    service_options.num_threads = 4;
    service_options.num_shards = path == ExecPath::kLocal ? 1 : 7;
    service_options.use_transport = path == ExecPath::kTransport;
    QueryService service(state_, service_options);
    ASSERT_EQ(service.exec_path(), path);
    const std::string name = ExecPathName(path);
    const Result count = service.Execute(Query::Count(star), options).get();
    const Result select = service.Execute(Query::Select(star), options).get();
    ASSERT_TRUE(count.ok() && select.ok()) << name;
    EXPECT_EQ(count.bound.cells_touched, select.bound.cells_touched) << name;
    EXPECT_EQ(count.bound.shards_probed, select.bound.shards_probed) << name;
    EXPECT_GT(select.bound.cells_touched, 0u) << name;
    if (path == ExecPath::kLocal) {
      EXPECT_EQ(select.bound.shards_probed, 0u) << name;
    } else {
      EXPECT_GT(select.bound.shards_probed, 0u) << name;
    }
  }
}

// ---- ErrorBound semantics ----------------------------------------------

TEST_F(QueryEnvelopeTest, GridLevelRoundTripsThroughEpsilonAtEveryLevel) {
  // The identity kGridLevel leans on: AchievedEpsilon(L) snaps back to
  // exactly L, for every level of every grid (power-of-two cell scaling,
  // identically computed diagonals).
  for (const double side : {4096.0, 1.0, 12345.678}) {
    const raster::Grid grid({0.0, 0.0}, side);
    for (int level = 0; level <= raster::CellId::kMaxLevel; ++level) {
      EXPECT_EQ(grid.LevelForEpsilon(grid.AchievedEpsilon(level)), level)
          << "side " << side << " level " << level;
      EXPECT_EQ(ErrorBound::AtLevel(level).ServedLevel(grid), level);
      EXPECT_EQ(ErrorBound::AtLevel(level).EffectiveEpsilon(grid),
                grid.AchievedEpsilon(level));
    }
  }
}

TEST_F(QueryEnvelopeTest, GridLevelPinsTheServedLevelExactly) {
  QueryService service(state_, {});
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  for (int level = 0; level <= 14; ++level) {
    ExecOptions options;
    options.bound = ErrorBound::AtLevel(level);
    const Result result = service.Execute(Query::Count(star), options).get();
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_EQ(result.bound.hr_level, level) << "level " << level;
    EXPECT_EQ(result.bound.epsilon_achieved, state_->grid.AchievedEpsilon(level))
        << "level " << level;
  }
}

TEST_F(QueryEnvelopeTest, AbsoluteBoundReproducesLevelForEpsilonOneUlpSweep) {
  // kAbsoluteDistance must serve exactly the level LevelForEpsilon picks,
  // including one ulp either side of every exact level diagonal (the FP
  // snapping regression of PR 2, restated over the envelope).
  const raster::Grid& grid = state_->grid;
  for (int level = 0; level <= raster::CellId::kMaxLevel; ++level) {
    const double eps = grid.AchievedEpsilon(level);
    for (const double probe :
         {eps, std::nextafter(eps, std::numeric_limits<double>::infinity()),
          std::nextafter(eps, 0.0)}) {
      EXPECT_EQ(ErrorBound::Absolute(probe).ServedLevel(grid),
                grid.LevelForEpsilon(probe))
          << "level " << level << " probe " << probe;
    }
  }
  // Spot-check end to end: the serving layer reports the snapped level.
  QueryService service(state_, {});
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  for (const double eps : {4.0, 8.0, 100.0}) {
    ExecOptions options;
    options.bound = ErrorBound::Absolute(eps);
    const Result result = service.Execute(Query::Count(star), options).get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.bound.hr_level, grid.LevelForEpsilon(eps));
    EXPECT_EQ(result.bound.epsilon_achieved,
              grid.AchievedEpsilon(grid.LevelForEpsilon(eps)));
    EXPECT_LE(result.bound.epsilon_achieved, eps);  // The paper's guarantee.
  }
}

TEST_F(QueryEnvelopeTest, ExactBoundBypassesApproximationAndMatchesBruteForce) {
  // Exact counts and selects equal a PIP test of every point, in ascending
  // row order, on the engine and on every service path, and report no
  // approximation.
  ExecOptions exact;
  exact.bound = ErrorBound::Exact();
  const std::vector<std::pair<std::string, geom::Polygon>> polys =
      AdversarialPolygons();
  ASSERT_EQ(polys.size(), 7u);
  ServiceOptions pooled;
  pooled.num_threads = 4;
  ServiceOptions sharded = pooled;
  sharded.num_shards = 7;
  ServiceOptions seam = sharded;
  seam.use_transport = true;
  std::vector<std::unique_ptr<QueryService>> services;
  for (const ServiceOptions& options : {pooled, sharded, seam}) {
    services.push_back(std::make_unique<QueryService>(state_, options));
  }
  for (const auto& [name, poly] : polys) {
    const std::vector<uint32_t> want =
        dbsa::testing::BruteForceInside(state_->points->locs, poly);
    const double inside = static_cast<double>(want.size());
    if (name == "inside one finest cell") {
      EXPECT_EQ(want.size(), 1u);
    } else if (name == "universe-covering square") {
      EXPECT_EQ(want.size(), state_->points->size());
    }

    const core::CountAnswer engine_count = core::ExecuteCount(*state_, poly, exact.bound);
    EXPECT_EQ(engine_count.range.estimate, inside) << name;
    EXPECT_EQ(engine_count.stats.hr_level, -1) << name;
    EXPECT_EQ(core::ExecuteSelect(*state_, poly, exact.bound).ids, want) << name;

    for (const std::unique_ptr<QueryService>& service : services) {
      const std::string label =
          name + " on " + ExecPathName(service->exec_path());
      const Result count = service->Execute(Query::Count(poly), exact).get();
      ASSERT_TRUE(count.ok()) << label;
      EXPECT_EQ(count.range.estimate, inside) << label;
      EXPECT_EQ(count.range.lo, inside) << label;  // Exact: the range collapses.
      EXPECT_EQ(count.range.hi, inside) << label;
      const Result select = service->Execute(Query::Select(poly), exact).get();
      ASSERT_TRUE(select.ok()) << label;
      EXPECT_EQ(select.ids, want) << label;
      for (const Result* r : {&count, &select}) {
        EXPECT_EQ(r->bound.hr_level, -1) << label;
        EXPECT_EQ(r->bound.epsilon_achieved, 0.0) << label;
        EXPECT_EQ(r->bound.cells_touched, 0u) << label;
        EXPECT_EQ(r->bound.shards_probed, 0u) << label;
      }
    }
  }

  // The refine approximation goes through the service's cache: a repeated
  // exact ask of one polygon builds nothing.
  QueryService service(state_, pooled);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const Result first = service.Execute(Query::Count(star), exact).get();
  EXPECT_EQ(first.bound.hr_cache_misses, 1u);
  EXPECT_EQ(first.bound.hr_cache_hits, 0u);
  const Result again = service.Execute(Query::Select(star), exact).get();
  EXPECT_EQ(again.bound.hr_cache_hits, 1u);
  EXPECT_EQ(again.bound.hr_cache_misses, 0u);

  // An approximate count at a finite bound must contain the exact answer
  // in its guaranteed range (the distance-bound contract itself).
  ExecOptions approx;
  approx.bound = ErrorBound::Absolute(16.0);
  const Result ranged = service.Execute(Query::Count(star), approx).get();
  ASSERT_TRUE(ranged.ok());
  EXPECT_LE(ranged.range.lo, first.range.estimate);
  EXPECT_GE(ranged.range.hi, first.range.estimate);
}

// ---- typed failure statuses --------------------------------------------

TEST_F(QueryEnvelopeTest, MalformedQueriesAnswerInvalidArgument) {
  QueryService service(state_, {});
  const geom::Polygon degenerate(geom::Ring{{0, 0}, {10, 10}});  // 2 vertices.
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);

  ExecOptions ok_bound;
  ok_bound.bound = ErrorBound::Absolute(8.0);
  // SUM, MIN or MAX without a column.
  Result r;
  for (const join::AggKind agg :
       {join::AggKind::kSum, join::AggKind::kMin, join::AggKind::kMax}) {
    r = service.Execute(Query::Aggregate(agg), ok_bound).get();
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << "agg " << static_cast<int>(agg);
    EXPECT_NE(r.status.message().find("attribute"), std::string::npos);
  }
  // Degenerate polygon.
  r = service.Execute(Query::Count(degenerate), ok_bound).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("vertices"), std::string::npos);
  // A query that admission turns away is traced too.
  EXPECT_NE(r.bound.trace_hi | r.bound.trace_lo, 0u);
  // NaN bound.
  ExecOptions nan_bound;
  nan_bound.bound = ErrorBound::Absolute(std::nan(""));
  r = service.Execute(Query::Count(star), nan_bound).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // Absolute bounds the grid cannot honour: non-finite, or positive and
  // below the finest level's cell diagonal. Zero stays the exact regime,
  // and the finest diagonal itself is served at the finest level. The
  // polygon is 1 mm wide, so a finest-level HR of it is small.
  const geom::Polygon tiny = MakeRectPolygon(2000, 2000, 2000.001, 2000.001);
  const double finest = state_->grid.AchievedEpsilon(raster::CellId::kMaxLevel);
  for (const double eps : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e-4,
                           finest / 2, std::nextafter(finest, 0.0)}) {
    ExecOptions unachievable;
    unachievable.bound = ErrorBound::Absolute(eps);
    for (const Query& query : {Query::Count(tiny), Query::Select(tiny),
                               Query::Aggregate(join::AggKind::kCount)}) {
      r = service.Execute(query, unachievable).get();
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
          << QueryKindName(query.kind()) << " eps " << eps;
      if (std::isfinite(eps)) {
        EXPECT_NE(r.status.message().find("finest achievable epsilon"),
                  std::string::npos)
            << r.status.message();
      }
    }
  }
  ExecOptions at_finest;
  at_finest.bound = ErrorBound::Absolute(finest);
  r = service.Execute(Query::Count(tiny), at_finest).get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.bound.hr_level, raster::CellId::kMaxLevel);
  EXPECT_EQ(r.bound.epsilon_achieved, finest);
  ExecOptions zero;
  zero.bound = ErrorBound::Absolute(0.0);
  r = service.Execute(Query::Count(tiny), zero).get();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.bound.hr_level, -1);
  // Out-of-range level.
  ExecOptions bad_level;
  bad_level.bound = ErrorBound::AtLevel(raster::CellId::kMaxLevel + 1);
  r = service.Execute(Query::Count(star), bad_level).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  bad_level.bound = ErrorBound::AtLevel(-1);
  r = service.Execute(Query::Count(star), bad_level).get();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // A non-finite vertex, in the outer ring or in a hole: rejected at
  // admission, before any rasterization.
  const geom::Polygon holed = dbsa::testing::MakeStarPolygonWithHole(
      {2000, 2000}, 400, 900, 16, 11);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    geom::Ring outer = holed.outer();
    outer[3].x = bad;
    geom::Ring hole = holed.holes()[0];
    hole[1].y = bad;
    for (const geom::Polygon& poly :
         {geom::Polygon(outer, holed.holes()), geom::Polygon(holed.outer(), {hole})}) {
      for (const Query& query : {Query::Count(poly), Query::Select(poly)}) {
        r = service.Execute(query, ok_bound).get();
        EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
            << QueryKindName(query.kind()) << " vertex " << bad;
        EXPECT_NE(r.status.message().find("non-finite"), std::string::npos);
      }
    }
  }

  // A poisoned query between two healthy ones, all in flight at once,
  // answers its own typed status and leaves its neighbours' answers alone.
  const std::vector<Result> batch =
      ExecuteAll(service, {{Query::Count(star), ok_bound, "count"},
                           {Query::Aggregate(join::AggKind::kSum), ok_bound, "sum"},
                           {Query::Count(star), ok_bound, "count"}});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[2].ok());
  EXPECT_EQ(batch[0].range.estimate, batch[2].range.estimate);
}

// ---- telemetry: observe-only tracing, slow-query log, metrics ----------

TEST_F(QueryEnvelopeTest, TelemetryIsObserveOnlyOnEveryPath) {
  // The tentpole invariant: the service traces every query and logs every
  // one as slow here, and its payloads stay BYTE-IDENTICAL to the core
  // executors run with default, untraced hooks over the same source, on
  // every execution path and under every mode. Telemetry observes; it
  // never steers.
  const std::vector<Submission> workload = Workload();
  struct PathConfig {
    size_t num_shards;
    bool use_transport;
  };
  for (const PathConfig& path :
       {PathConfig{0, false}, PathConfig{7, false}, PathConfig{7, true}}) {
    ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = path.num_shards;
    options.use_transport = path.use_transport;
    options.slow_query_ms = 1e-6;  // Every query "slow": the log path runs too.
    options.slow_query_sink = [](const std::string&) {};
    QueryService traced(state_, options);
    // The loopback servers serve the service's own slices.
    const core::ShardSource& untraced =
        traced.sharded() != nullptr
            ? static_cast<const core::ShardSource&>(*traced.sharded())
            : *state_;
    const std::vector<Result> with = ExecuteAll(traced, workload);
    ASSERT_EQ(with.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ExpectIdentical(with[i], dbsa::testing::Reference(untraced, workload[i]),
                      (path.use_transport
                           ? std::string("transport ")
                           : path.num_shards > 0 ? std::string("sharded ")
                                                 : std::string("pooled ")) +
                          workload[i].label);
      // Every Result carries its query's trace id.
      EXPECT_NE(with[i].bound.trace_hi | with[i].bound.trace_lo, 0u);
    }
  }
}

TEST_F(QueryEnvelopeTest, SlowQueryLogCarriesTheFullSpanTable) {
  // A deliberately "slowed" query (threshold below any real latency) must
  // emit ONE structured line per query carrying the trace id from the
  // result and a span table covering every serving stage of the
  // transport path.
  std::mutex mu;
  std::vector<std::string> lines;
  ServiceOptions options;
  options.num_threads = 1;
  options.num_shards = 4;
  options.use_transport = true;
  options.slow_query_ms = 1e-6;
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  QueryService service(state_, options);

  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  ExecOptions exec;
  exec.bound = ErrorBound::Absolute(4.0);
  const Result result = service.Execute(Query::Count(star), exec).get();
  ASSERT_TRUE(result.ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_NE(line.find("SLOW_QUERY"), std::string::npos) << line;
  EXPECT_NE(line.find("trace=" + telemetry::TraceIdHex(result.bound.trace_hi,
                                                       result.bound.trace_lo)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("kind=count"), std::string::npos) << line;
  EXPECT_NE(line.find("status=OK"), std::string::npos) << line;
  // The span table covers the whole stack: admission, the execute stage,
  // HR acquisition, routing, at least one per-shard roundtrip, and the
  // partial-combining stage (aggregates record "merge"; selects "gather").
  for (const char* stage :
       {"admission@", "execute@", "route@", "shard_roundtrip{shard=",
        "merge@"}) {
    EXPECT_NE(line.find(stage), std::string::npos) << stage << " in " << line;
  }
  const bool hr_span = line.find("hr_build@") != std::string::npos ||
                       line.find("cache_lookup@") != std::string::npos;
  EXPECT_TRUE(hr_span) << line;
}

TEST_F(QueryEnvelopeTest, RegistryCoversTheWholeServingStack) {
  // One shared registry: per-kind query counters and latency histograms,
  // per-shard scatter counters from the loopback shard servers, cache
  // gauges, per-stage histograms — all render from QueryService::registry().
  ServiceOptions options;
  options.num_threads = 2;
  options.num_shards = 3;
  options.use_transport = true;
  QueryService service(state_, options);
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  ExecOptions exec;
  exec.bound = ErrorBound::Absolute(4.0);
  ASSERT_TRUE(service.Execute(Query::Count(star), exec).get().ok());
  ASSERT_TRUE(service.Execute(Query::Select(star), exec).get().ok());

  const std::string text = service.registry()->RenderText();
  EXPECT_NE(text.find("dbsa_queries_total{kind=\"count\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dbsa_queries_total{kind=\"select\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dbsa_query_latency_ms_count{kind=\"count\"} 1"),
            std::string::npos);
  // Every loopback shard server labels its metrics with its index and
  // records into the SAME registry.
  for (const char* series :
       {"dbsa_shard_scatter_requests_total{shard=\"0\"}",
        "dbsa_shard_scatter_requests_total{shard=\"1\"}",
        "dbsa_shard_scatter_requests_total{shard=\"2\"}"}) {
    const size_t pos = text.find(series);
    ASSERT_NE(pos, std::string::npos) << series;
    // The count after the series name is non-zero (both queries fanned
    // out across all three shards).
    EXPECT_NE(text.substr(pos + std::string(series).size(), 2), " 0")
        << series;
  }
  EXPECT_NE(text.find("dbsa_approx_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("dbsa_loopback_messages_total"), std::string::npos);
  // Per-stage histograms exist under the spliced-label scheme.
  EXPECT_NE(text.find("dbsa_stage_ms_bucket{stage=\"route\""),
            std::string::npos);
  EXPECT_NE(text.find("dbsa_stage_ms_count{stage=\"shard_roundtrip\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace dbsa::service
