// Integration tests for the whole-state executors: end-to-end aggregation
// across all execution modes, exact-vs-approximate consistency, result
// ranges, and the motivating Figure 2 semantics.

#include <gtest/gtest.h>

#include "core/dbsa.h"
#include "geom/distance.h"
#include "test_util.h"

namespace dbsa::core {
namespace {

using query::ErrorBound;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 8192, 8192);
    points_ = data::GenerateTaxiPoints(30000, taxi_config);

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 28;
    regions_ = data::GenerateRegions(region_config);

    state_ = BuildEngineState(points_, regions_);
  }

  data::PointSet points_;
  data::RegionSet regions_;
  std::shared_ptr<const EngineState> state_;
};

TEST_F(EngineTest, ExactModeMatchesBruteForce) {
  const AggregateAnswer exact = ExecuteAggregate(*state_, join::AggKind::kCount,
                                                 Attr::kNone, ErrorBound::Exact());
  EXPECT_EQ(exact.stats.plan, query::PlanKind::kExactRStar);
  double total = 0;
  for (const AggregateRow& row : exact.rows) total += row.value;
  EXPECT_NEAR(total, static_cast<double>(points_.size()), 1.0);
}

TEST_F(EngineTest, ApproxModesAgreeWithinBound) {
  const double eps = 8.0;
  const AggregateAnswer exact =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone, ErrorBound::Exact());
  for (const Mode mode : {Mode::kAct, Mode::kPointIndex, Mode::kCanvasBrj}) {
    const AggregateAnswer approx =
        ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                         ErrorBound::Absolute(eps), mode);
    ASSERT_EQ(approx.rows.size(), exact.rows.size());
    double total_err = 0, total = 0;
    for (size_t r = 0; r < exact.rows.size(); ++r) {
      total_err += std::fabs(approx.rows[r].value - exact.rows[r].value);
      total += exact.rows[r].value;
    }
    EXPECT_LT(total_err / total, 0.05) << "mode " << static_cast<int>(mode);
    EXPECT_LE(approx.stats.achieved_epsilon, eps * (1 + 1e-12));
  }
}

TEST_F(EngineTest, ActModePerformsNoPipTests) {
  const AggregateAnswer approx =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(8.0), Mode::kAct);
  EXPECT_EQ(approx.stats.pip_tests, 0u);
  EXPECT_GT(approx.stats.index_bytes, 0u);
}

TEST_F(EngineTest, PointIndexModeReturnsValidRanges) {
  const AggregateAnswer exact =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone, ErrorBound::Exact());
  const AggregateAnswer ranged =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(16.0), Mode::kPointIndex);
  for (size_t r = 0; r < exact.rows.size(); ++r) {
    EXPECT_GE(exact.rows[r].value, ranged.rows[r].lo - 1e-6) << "region " << r;
    EXPECT_LE(exact.rows[r].value, ranged.rows[r].hi + 1e-6) << "region " << r;
    EXPECT_GE(ranged.rows[r].hi, ranged.rows[r].lo);
  }
}

TEST_F(EngineTest, SumAndAvgAggregates) {
  const AggregateAnswer exact_sum =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kFare, ErrorBound::Exact());
  const AggregateAnswer approx_sum =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kFare,
                       ErrorBound::Absolute(8.0), Mode::kAct);
  const AggregateAnswer approx_avg =
      ExecuteAggregate(*state_, join::AggKind::kAvg, Attr::kFare,
                       ErrorBound::Absolute(8.0), Mode::kAct);
  for (size_t r = 0; r < exact_sum.rows.size(); ++r) {
    if (exact_sum.rows[r].value > 1000) {
      EXPECT_NEAR(approx_sum.rows[r].value / exact_sum.rows[r].value, 1.0, 0.1);
    }
    EXPECT_GE(approx_avg.rows[r].value, 0.0);
  }
}

TEST_F(EngineTest, PointIndexPassengerSumReroutesToAct) {
  // The point index carries prefix sums of the fare column only; a
  // SUM/AVG over passengers must not silently aggregate fares. The engine
  // reroutes such queries to the ACT join.
  const AggregateAnswer rerouted =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kPassengers,
                       ErrorBound::Absolute(8.0), Mode::kPointIndex);
  EXPECT_EQ(rerouted.stats.plan, query::PlanKind::kActJoin);
  const AggregateAnswer act =
      ExecuteAggregate(*state_, join::AggKind::kSum, Attr::kPassengers,
                       ErrorBound::Absolute(8.0), Mode::kAct);
  ASSERT_EQ(rerouted.rows.size(), act.rows.size());
  for (size_t r = 0; r < act.rows.size(); ++r) {
    EXPECT_EQ(rerouted.rows[r].value, act.rows[r].value) << "region " << r;
  }
  // COUNT needs no attribute column and stays on the point index.
  const AggregateAnswer count =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(8.0), Mode::kPointIndex);
  EXPECT_EQ(count.stats.plan, query::PlanKind::kPointIndexJoin);
}

TEST_F(EngineTest, AutoModePicksAPlanAndExplains) {
  const AggregateAnswer auto_run =
      ExecuteAggregate(*state_, join::AggKind::kCount, Attr::kNone,
                       ErrorBound::Absolute(8.0), Mode::kAuto);
  EXPECT_FALSE(auto_run.stats.explain.empty());
  EXPECT_GT(auto_run.stats.elapsed_ms, 0.0);
}

TEST_F(EngineTest, CountRangeContainsExact) {
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 800, 1800, 20, 11);
  size_t exact = 0;
  for (const geom::Point& p : points_.locs) {
    if (query.bounds().Contains(p) && query.Contains(p)) ++exact;
  }
  for (const double eps : {64.0, 16.0, 4.0}) {
    const join::ResultRange range = ExecuteCount(*state_, query,
                                                 ErrorBound::Absolute(eps)).range;
    EXPECT_TRUE(range.Contains(static_cast<double>(exact)))
        << "eps " << eps << " range [" << range.lo << "," << range.hi << "] exact "
        << exact;
  }
}

TEST_F(EngineTest, SelectIsConservativeAndBounded) {
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 800, 1800, 20, 21);
  const double eps = 16.0;
  const std::vector<uint32_t> ids = ExecuteSelect(*state_, query,
                                                  ErrorBound::Absolute(eps)).ids;
  std::vector<bool> selected(points_.size(), false);
  for (const uint32_t id : ids) {
    ASSERT_LT(id, points_.size());
    selected[id] = true;
  }
  for (size_t i = 0; i < points_.size(); ++i) {
    const geom::Point& p = points_.locs[i];
    const bool exact = query.bounds().Contains(p) && query.Contains(p);
    if (exact) {
      ASSERT_TRUE(selected[i]) << "missed inside point " << i;
    } else if (selected[i]) {
      ASSERT_LE(geom::DistanceToPolygon(p, query), eps + 1e-9)
          << "false positive beyond the bound";
    }
  }
}

TEST_F(EngineTest, Figure2Semantics) {
  // The motivating example: MBR-based filtering counts far-away points;
  // the distance-bounded approximation's false positives all lie near the
  // region. Reproduce with one concave query region.
  const geom::Polygon query =
      dbsa::testing::MakeStarPolygon({4000, 4000}, 600, 2000, 12, 13);
  // MBR count (what a pure-filter baseline returns).
  size_t mbr_count = 0, exact = 0;
  for (const geom::Point& p : points_.locs) {
    if (query.bounds().Contains(p)) {
      ++mbr_count;
      if (query.Contains(p)) ++exact;
    }
  }
  const double eps = 32.0;
  const join::ResultRange ur_range = ExecuteCount(*state_, query,
                                                  ErrorBound::Absolute(eps)).range;
  // The raster count is within its guaranteed range and much closer to
  // exact than the MBR count for concave regions.
  EXPECT_TRUE(ur_range.Contains(static_cast<double>(exact)));
  EXPECT_LT(std::fabs(ur_range.approx - static_cast<double>(exact)),
            std::fabs(static_cast<double>(mbr_count) - static_cast<double>(exact)));
}

TEST(EngineLifecycleTest, StatesAnswerForTheirOwnRegionTables) {
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 1024, 1024);
  const data::PointSet points = data::GenerateTaxiPoints(1000, config);
  data::RegionConfig rc;
  rc.universe = config.universe;
  rc.num_polygons = 4;
  const auto a = BuildEngineState(points, data::GenerateRegions(rc));
  ASSERT_EQ(ExecuteAggregate(*a, join::AggKind::kCount, Attr::kNone,
                             query::ErrorBound::Absolute(4.0))
                .rows.size(),
            4u);

  // A state over a different region set answers with its own rows.
  rc.num_polygons = 9;
  rc.seed = 99;
  const auto b = BuildEngineState(points, data::GenerateRegions(rc));
  ASSERT_EQ(ExecuteAggregate(*b, join::AggKind::kCount, Attr::kNone,
                             query::ErrorBound::Absolute(4.0))
                .rows.size(),
            9u);
}

}  // namespace
}  // namespace dbsa::core
