// Stress tests for SFC-sharded scatter-gather execution: results must be
// BYTE-IDENTICAL to the unsharded engine at every (shard count, thread
// count) combination, across all three query kinds, including shards
// that prune to zero.
//
// Attribute note: fares are quantized to multiples of 1/64 (dyadic), so
// every per-cell and per-shard partial sum is exactly representable in
// double and the gather merge is exact — the merge-identity contract of
// core/sharded_state.h holds bit-for-bit for SUM and AVG as well as for
// the always-exact COUNT / range / selection results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dbsa.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace dbsa::core {
namespace {

using dbsa::testing::AggregateAt;
using dbsa::testing::CountAt;
using dbsa::testing::MakeRectPolygon;
using dbsa::testing::MakeStarPolygon;
using dbsa::testing::SelectAt;
using dbsa::testing::Submission;
using query::ErrorBound;

/// Bitwise row comparison (== on doubles — the determinism contract).
void ExpectRowsIdentical(const AggregateAnswer& got, const AggregateAnswer& want,
                         const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].region, want.rows[r].region) << label << " region " << r;
    EXPECT_EQ(got.rows[r].value, want.rows[r].value) << label << " region " << r;
    EXPECT_EQ(got.rows[r].lo, want.rows[r].lo) << label << " region " << r;
    EXPECT_EQ(got.rows[r].hi, want.rows[r].hi) << label << " region " << r;
  }
}

class ShardedStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
    // Dyadic fares: exact sums under any association (see file comment).
    for (double& f : points.fare) f = std::round(f * 64.0) / 64.0;

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 24;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;
    data::RegionSet regions = data::GenerateRegions(region_config);

    base_ = BuildEngineState(std::move(points), std::move(regions));
  }

  std::shared_ptr<const EngineState> base_;
};

TEST_F(ShardedStateTest, BuildPartitionsPointsIntoLocalShards) {
  const auto sharded = ShardedState::Build(base_, {/*num_shards=*/7});
  ASSERT_EQ(sharded->num_shards(), 7u);
  std::vector<char> seen(base_->points->size(), 0);
  size_t total = 0;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const ShardedState::Shard& shard = sharded->shard(s);
    ASSERT_NE(shard.state, nullptr);
    EXPECT_EQ(shard.state->points->size(), shard.num_points());
    EXPECT_TRUE(shard.state->point_index.has_value());  // Eagerly built.
    // Shards share the base grid — cell keys agree across shards.
    EXPECT_EQ(shard.state->grid.origin(), base_->grid.origin());
    EXPECT_EQ(shard.state->grid.side(), base_->grid.side());
    EXPECT_TRUE(std::is_sorted(shard.global_ids.begin(), shard.global_ids.end()));
    for (const uint32_t id : shard.global_ids) {
      EXPECT_EQ(seen[id], 0) << "point " << id << " in two shards";
      seen[id] = 1;
      EXPECT_TRUE(shard.bounds.Contains(base_->points->locs[id]));
    }
    total += shard.num_points();
    // Hilbert-contiguous runs are spatially local: each shard's bbox is a
    // strict sub-area of the universe.
    EXPECT_LT(shard.bounds.Area(), base_->grid.universe().Area() * 0.9);
  }
  EXPECT_EQ(total, base_->points->size());
}

TEST_F(ShardedStateTest, ScatterGatherByteMatchesUnshardedEverywhere) {
  const geom::Polygon star1 = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon star2 = MakeStarPolygon({1200, 2800}, 300, 700, 12, 23);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  const std::vector<geom::Polygon> polys = {star1, star2, corner};
  const std::vector<double> epsilons = {4.0, 16.0};

  for (const size_t k : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    const auto sharded = ShardedState::Build(base_, {k});
    for (const size_t threads : {size_t{0}, size_t{4}, size_t{8}}) {
      // threads == 0: no parallel hook (serial gather); otherwise fan the
      // scatter stage out across a real pool.
      std::unique_ptr<service::ThreadPool> pool;
      ExecHooks hooks;
      if (threads > 0) {
        pool = std::make_unique<service::ThreadPool>(threads);
        hooks.parallel_for = [&pool](size_t n,
                                     const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        };
      }
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);

      for (const double eps : epsilons) {
        // Region aggregations, all three aggregate kinds.
        ExpectRowsIdentical(
            ExecuteAggregate(*sharded, join::AggKind::kCount, Attr::kNone,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex, hooks),
            ExecuteAggregate(*base_, join::AggKind::kCount, Attr::kNone,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex),
            label + " count eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            ExecuteAggregate(*sharded, join::AggKind::kSum, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex, hooks),
            ExecuteAggregate(*base_, join::AggKind::kSum, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex),
            label + " sum eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            ExecuteAggregate(*sharded, join::AggKind::kAvg, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex, hooks),
            ExecuteAggregate(*base_, join::AggKind::kAvg, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex),
            label + " avg eps=" + std::to_string(eps));

        // Ad-hoc counts and selections.
        for (size_t p = 0; p < polys.size(); ++p) {
          const join::ResultRange got =
              ExecuteCount(*sharded, polys[p], ErrorBound::Absolute(eps), hooks).range;
          const join::ResultRange want = ExecuteCount(*base_, polys[p],
                                                      ErrorBound::Absolute(eps)).range;
          EXPECT_EQ(got.estimate, want.estimate) << label << " poly " << p;
          EXPECT_EQ(got.lo, want.lo) << label << " poly " << p;
          EXPECT_EQ(got.hi, want.hi) << label << " poly " << p;
          EXPECT_EQ(ExecuteSelect(*sharded, polys[p], ErrorBound::Absolute(eps),
                                  hooks).ids,
                    ExecuteSelect(*base_, polys[p], ErrorBound::Absolute(eps)).ids)
              << label << " poly " << p;
        }
      }

      // The exact plan delegates to the base state unchanged: the reroute
      // of an aggregate the point index cannot answer, and exact bounds.
      ExpectRowsIdentical(ExecuteAggregate(*sharded, join::AggKind::kMin,
                                           Attr::kFare, ErrorBound::Absolute(8.0),
                                           Mode::kAuto, hooks),
                          ExecuteAggregate(*base_, join::AggKind::kMin, Attr::kFare,
                                           ErrorBound::Exact()),
                          label + " delegated MIN");
      ExpectRowsIdentical(ExecuteAggregate(*sharded, join::AggKind::kCount,
                                           Attr::kNone, ErrorBound::Exact(),
                                               Mode::kExact, hooks),
                          ExecuteAggregate(*base_, join::AggKind::kCount,
                                           Attr::kNone, ErrorBound::Exact(),
                                               Mode::kExact),
                          label + " delegated exact");
    }
  }
}

TEST_F(ShardedStateTest, SelectivePolygonPrunesShards) {
  const auto sharded = ShardedState::Build(base_, {/*num_shards=*/16});
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(corner, base_->grid, 8.0);
  const std::vector<uint32_t> surviving = sharded->PlanScatter(hr, nullptr).shards;
  // A ~0.5% viewport touches a handful of Hilbert-local shards, not all.
  EXPECT_GE(surviving.size(), 1u);
  EXPECT_LT(surviving.size(), 8u);

  // The aggregate stats report how many shards were actually probed.
  const AggregateAnswer answer = ExecuteAggregate(
      *sharded, join::AggKind::kCount, Attr::kNone, ErrorBound::Absolute(8.0),
          Mode::kPointIndex);
  EXPECT_GT(answer.stats.shards_probed, 0u);
  EXPECT_LE(answer.stats.shards_probed, 16u);
}

TEST_F(ShardedStateTest, QueryOutsideEveryShardPrunesToZero) {
  // Points confined to the left half of the universe; the query sits in
  // the right half: every shard prunes to zero and the (empty) gather
  // must still byte-match the unsharded engine's zero answers.
  data::TaxiConfig config;
  config.universe = geom::Box(0, 0, 2000, 4096);  // Left half only.
  data::PointSet points = data::GenerateTaxiPoints(5000, config);
  data::RegionConfig region_config;
  region_config.universe = geom::Box(0, 0, 4096, 4096);
  region_config.num_polygons = 8;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = BuildEngineState(std::move(points), std::move(regions));
  const auto sharded = ShardedState::Build(base, {/*num_shards=*/4});

  const geom::Polygon far_poly = MakeRectPolygon(3000, 1000, 3800, 2000);
  const raster::HierarchicalRaster hr =
      raster::HierarchicalRaster::BuildEpsilon(far_poly, base->grid, 8.0);
  EXPECT_TRUE(sharded->PlanScatter(hr, nullptr).shards.empty());

  const join::ResultRange got = ExecuteCount(*sharded, far_poly,
                                             ErrorBound::Absolute(8.0)).range;
  const join::ResultRange want = ExecuteCount(*base, far_poly,
                                              ErrorBound::Absolute(8.0)).range;
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.hi, want.hi);
  EXPECT_EQ(got.estimate, 0.0);
  EXPECT_TRUE(ExecuteSelect(*sharded, far_poly, ErrorBound::Absolute(8.0)).ids.empty());
}

TEST_F(ShardedStateTest, ShardedQueryServiceByteMatchesUnshardedEngine) {
  // End-to-end through the serving layer: 8 shards x 8 threads, workload
  // duplicated so the second half exercises the warm HR cache.
  std::vector<Submission> workload;
  const geom::Polygon star = MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon corner = MakeRectPolygon(100, 100, 380, 420);
  for (const double eps : {4.0, 8.0}) {
    workload.push_back(
        AggregateAt(join::AggKind::kCount, Attr::kNone, eps, Mode::kPointIndex));
    workload.push_back(
        AggregateAt(join::AggKind::kSum, Attr::kFare, eps, Mode::kPointIndex));
    workload.push_back(CountAt(star, eps));
    workload.push_back(CountAt(corner, eps));
    workload.push_back(SelectAt(star, eps));
  }
  // Explicit copy: self-range insert invalidates the source iterators on
  // reallocation and used to corrupt the duplicated half.
  const std::vector<Submission> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  service::ServiceOptions options;
  options.num_threads = 8;
  options.num_shards = 8;
  service::QueryService service(base_, options);
  ASSERT_NE(service.sharded(), nullptr);
  ASSERT_EQ(service.sharded()->num_shards(), 8u);

  for (const Submission& sub : workload) service.Submit(sub.query, sub.options);
  const std::vector<service::Result> results = service.Drain();
  ASSERT_EQ(results.size(), workload.size());

  for (size_t i = 0; i < results.size(); ++i) {
    dbsa::testing::ExpectSamePayload(results[i],
                                     dbsa::testing::Reference(*base_, workload[i]),
                                     "request " + std::to_string(i));
  }
}

// ---- the selection merge -----------------------------------------------

TEST(GatherIdsTest, MergesRunsByKeyThenRowId) {
  using Run = std::vector<std::pair<uint64_t, uint32_t>>;
  // Equal keys in two runs, their ids in reverse run order: the second
  // run's (5, 2) goes before the first run's (5, 3).
  EXPECT_EQ(GatherIds({Run{{5, 3}, {9, 1}}, Run{{5, 2}, {7, 4}}}),
            (std::vector<uint32_t>{2, 3, 4, 1}));
  // Three interleaved runs (an odd count leaves one unpaired per round).
  EXPECT_EQ(GatherIds({Run{{1, 10}, {4, 13}, {8, 16}}, Run{{2, 11}, {5, 14}},
                       Run{{3, 12}, {6, 15}, {9, 17}}}),
            (std::vector<uint32_t>{10, 11, 12, 13, 14, 15, 16, 17}));
  // An empty run among others, one run alone, and no runs at all.
  EXPECT_EQ(GatherIds({Run{{2, 7}}, Run{}, Run{{1, 8}}}),
            (std::vector<uint32_t>{8, 7}));
  EXPECT_EQ(GatherIds({Run{{4, 1}, {4, 9}}}), (std::vector<uint32_t>{1, 9}));
  EXPECT_TRUE(GatherIds({}).empty());
}

TEST(ShardedSelectTest, EqualKeysAcrossEveryShardCutMergeLikeUnsharded) {
  // 3,000 of 5,000 points share one location, interleaved in row order
  // with the rest. They share one curve cell, so in the (rank, row)
  // order the cut uses they form one block longer than half the points,
  // and every cut at K = 2 or 7 splits it: equal leaf keys reach the
  // gather from two or more shards.
  data::TaxiConfig taxi_config;
  taxi_config.universe = geom::Box(0, 0, 4096, 4096);
  data::PointSet points = data::GenerateTaxiPoints(5000, taxi_config);
  const geom::Point hot{2048.3, 1900.7};
  for (size_t i = 0; i < points.size(); ++i) {
    if (i % 5 < 3) points.locs[i] = hot;
  }
  data::RegionConfig region_config;
  region_config.universe = taxi_config.universe;
  region_config.num_polygons = 8;
  const auto base =
      BuildEngineState(std::move(points), data::GenerateRegions(region_config));
  const geom::Polygon around = MakeRectPolygon(1800, 1650, 2300, 2150);

  for (const size_t k : {size_t{2}, size_t{7}}) {
    const std::string label = "k=" + std::to_string(k);
    const auto sharded = ShardedState::Build(base, {k});
    size_t shards_holding_hot = 0;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      const std::vector<uint32_t>& ids = sharded->shard(s).global_ids;
      shards_holding_hot += std::any_of(ids.begin(), ids.end(), [&](uint32_t id) {
        return base->points->locs[id] == hot;
      });
    }
    EXPECT_GE(shards_holding_hot, 2u) << label;

    service::ServiceOptions options;
    options.num_threads = 2;
    options.num_shards = k;
    options.use_transport = true;
    service::QueryService seam(base, options);
    for (const double eps : {4.0, 16.0}) {
      const std::string at = label + " eps=" + std::to_string(eps);
      const std::vector<uint32_t> want =
          ExecuteSelect(*base, around, ErrorBound::Absolute(eps)).ids;
      EXPECT_GE(want.size(), 3000u) << at;
      EXPECT_EQ(ExecuteSelect(*sharded, around, ErrorBound::Absolute(eps)).ids, want)
          << at << " in-process";
      EXPECT_EQ(seam.Execute(service::Query::Select(around),
                             dbsa::testing::Options(ErrorBound::Absolute(eps)))
                    .get()
                    .ids,
                want)
          << at << " loopback";
    }
  }
}

// ---- the unconditional SUM/AVG merge identity --------------------------

TEST(ShardedNonDyadicSumTest, AdversarialAttributesByteIdenticalAtEveryK) {
  // Regression for the compensated (error-free transformation) SUM
  // pipeline: BEFORE it, sharded SUM/AVG matched the unsharded engine
  // bit-for-bit only for dyadic attributes — per-cell partials from the
  // rounded prefix arrays re-associated differently across shard merges.
  // The attribute column here is built to break that old contract:
  //   * non-dyadic decimals (0.01 steps) whose partial sums always round,
  //   * large-magnitude pairs (±1e9 + decimals) that cancel across cells,
  //   * tiny values (1e-4 scale) whose bits die next to the big ones
  // under plain double accumulation. With the compensated pairs, every
  // per-cell and per-shard partial is exact, so the gather merges to
  // identical bits at any shard count and any thread count.
  data::TaxiConfig taxi_config;
  taxi_config.universe = geom::Box(0, 0, 4096, 4096);
  data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);
  for (size_t i = 0; i < points.fare.size(); ++i) {
    double fare = 0.01 * static_cast<double>(i % 977) + 1e-4;
    if (i % 97 == 0) fare += 1e9 + 0.123;
    if (i % 97 == 1) fare -= 1e9 - 0.456;  // Cancels a neighbour's spike.
    points.fare[i] = fare;
  }
  data::RegionConfig region_config;
  region_config.universe = taxi_config.universe;
  region_config.num_polygons = 16;
  region_config.target_avg_vertices = 24;
  region_config.multi_fraction = 0.2;
  data::RegionSet regions = data::GenerateRegions(region_config);
  const auto base = BuildEngineState(std::move(points), std::move(regions));

  for (const size_t k : {size_t{1}, size_t{7}, size_t{16}}) {
    const auto sharded = ShardedState::Build(base, {k});
    for (const size_t threads : {size_t{0}, size_t{8}}) {
      std::unique_ptr<service::ThreadPool> pool;
      ExecHooks hooks;
      if (threads > 0) {
        pool = std::make_unique<service::ThreadPool>(threads);
        hooks.parallel_for = [&pool](size_t n,
                                     const std::function<void(size_t)>& fn) {
          pool->ParallelFor(n, fn);
        };
      }
      const std::string label =
          "k=" + std::to_string(k) + " threads=" + std::to_string(threads);
      for (const double eps : {4.0, 16.0}) {
        ExpectRowsIdentical(
            ExecuteAggregate(*sharded, join::AggKind::kSum, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex, hooks),
            ExecuteAggregate(*base, join::AggKind::kSum, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex),
            label + " adversarial sum eps=" + std::to_string(eps));
        ExpectRowsIdentical(
            ExecuteAggregate(*sharded, join::AggKind::kAvg, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex, hooks),
            ExecuteAggregate(*base, join::AggKind::kAvg, Attr::kFare,
                             ErrorBound::Absolute(eps),
                             Mode::kPointIndex),
            label + " adversarial avg eps=" + std::to_string(eps));
      }
    }
    // And across the transport seam: serialization must not cost a bit
    // even for the compensated pairs.
    service::ServiceOptions options;
    options.num_threads = 4;
    options.num_shards = k;
    options.use_transport = true;
    service::QueryService seam(std::shared_ptr<const EngineState>(base), options);
    const core::AggregateAnswer via_seam =
        seam.Execute(service::Query::Aggregate(join::AggKind::kSum, Attr::kFare),
                     [] {
                       service::ExecOptions o;
                       o.bound = query::ErrorBound::Absolute(4.0);
                       o.mode = Mode::kPointIndex;
                       return o;
                     }())
            .get()
            .aggregate;
    ExpectRowsIdentical(via_seam,
                        ExecuteAggregate(*base, join::AggKind::kSum, Attr::kFare,
                                         ErrorBound::Absolute(4.0), Mode::kPointIndex),
                        "seam k=" + std::to_string(k) + " adversarial sum");
  }
}

}  // namespace
}  // namespace dbsa::core
