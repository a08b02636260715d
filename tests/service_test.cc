// Tests for the concurrent query service: thread-pool basics, the
// batched Submit/Drain API, cache warm-up, and the load-bearing guarantee
// that a service run with many threads returns results BYTE-IDENTICAL to
// the single-threaded core executors on the same workload.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dbsa.h"
#include "envelope_util.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  futures.reserve(32);
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([&counter, i]() {
      counter.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  // More outer tasks than threads, each nesting an inner loop: the inner
  // ParallelFor must make progress on the calling worker alone.
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Async([&]() {
      pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 4 * 50);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyExceptionWithoutHanging) {
  // Regression: a throwing body used to strand the caller waiting for
  // done == n (the thrown iteration never counted) or terminate the
  // worker. The contract now: first exception rethrown on the caller,
  // remaining iterations drained, pool fully usable afterwards.
  ThreadPool pool(4);
  constexpr size_t kN = 200;
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(kN, [&](size_t i) {
      if (i == 17) throw std::runtime_error("iteration 17 failed");
      ran.fetch_add(1);
    });
    FAIL() << "ParallelFor must rethrow the body exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 17 failed");
  }
  EXPECT_LT(ran.load(), static_cast<int>(kN));  // 17 itself never counted.

  // Every iteration throws: still exactly one exception, no hang.
  EXPECT_THROW(
      pool.ParallelFor(kN, [](size_t) { throw std::runtime_error("all fail"); }),
      std::runtime_error);

  // The pool survives and runs clean loops afterwards.
  std::atomic<int> clean{0};
  pool.ParallelFor(kN, [&](size_t) { clean.fetch_add(1); });
  EXPECT_EQ(clean.load(), static_cast<int>(kN));
}

TEST(ThreadPoolTest, ParallelForExceptionFromNestedWorkerLoop) {
  // A pool worker nesting a throwing ParallelFor must get the exception
  // on its own (worker) thread and not wedge the outer loop.
  ThreadPool pool(2);
  std::atomic<int> caught{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.Async([&]() {
      try {
        pool.ParallelFor(50, [&](size_t i) {
          if (i % 7 == 3) throw std::logic_error("nested failure");
        });
      } catch (const std::logic_error&) {
        caught.fetch_add(1);
      }
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(caught.load(), 4);
}

TEST(ThreadPoolTest, ZeroAndOneIterationLoops) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ----------------------------------------------------------- the service

using dbsa::testing::AggregateAt;
using dbsa::testing::CountAt;
using dbsa::testing::Options;
using dbsa::testing::Reference;
using dbsa::testing::SelectAt;
using dbsa::testing::Submission;
using query::ErrorBound;

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::PointSet points = data::GenerateTaxiPoints(20000, taxi_config);

    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 16;
    region_config.target_avg_vertices = 24;
    region_config.multi_fraction = 0.2;  // Exercise multi-part regions.
    state_ = core::BuildEngineState(std::move(points),
                                    data::GenerateRegions(region_config));
  }

  /// The mixed workload both executors run: kAuto resolves from the base
  /// tables and the bound alone, so it is compared like the pinned plan.
  /// AVG(passengers) and MIN/MAX(fare) take the exact reroute.
  std::vector<Submission> MixedWorkload() const {
    std::vector<Submission> subs;
    const geom::Polygon star1 =
        dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
    const geom::Polygon star2 =
        dbsa::testing::MakeStarPolygon({1200, 2800}, 300, 700, 12, 23);
    for (const double eps : {4.0, 8.0, 16.0}) {
      for (const core::Mode mode : {core::Mode::kAuto, core::Mode::kPointIndex}) {
        subs.push_back(AggregateAt(join::AggKind::kCount, core::Attr::kNone, eps, mode));
        subs.push_back(AggregateAt(join::AggKind::kSum, core::Attr::kFare, eps, mode));
        subs.push_back(
            AggregateAt(join::AggKind::kAvg, core::Attr::kPassengers, eps, mode));
        if (eps == 8.0) {
          subs.push_back(AggregateAt(join::AggKind::kMin, core::Attr::kFare, eps, mode));
          subs.push_back(AggregateAt(join::AggKind::kMax, core::Attr::kFare, eps, mode));
        }
      }
      subs.push_back(CountAt(star1, eps));
      subs.push_back(CountAt(star2, eps));
      subs.push_back(SelectAt(star1, eps));
    }
    subs.push_back({Query::Aggregate(join::AggKind::kCount),
                    Options(ErrorBound::Exact(), core::Mode::kExact), "exact"});
    return subs;
  }

  core::AggregateAnswer PointIndexCount(QueryService& service) const {
    return service
        .Execute(Query::Aggregate(join::AggKind::kCount),
                 Options(ErrorBound::Absolute(8.0), core::Mode::kPointIndex))
        .get()
        .aggregate;
  }

  std::shared_ptr<const core::EngineState> state_;
};

TEST_F(QueryServiceTest, EightThreadsByteMatchSingleThreadedEngine) {
  // Duplicate the workload so the second half hits the warm cache —
  // cached approximations must not change a single bit of any answer.
  // (Via an explicit copy: self-range insert invalidates the source
  // iterators on reallocation and used to corrupt the duplicated half.)
  std::vector<Submission> workload = MixedWorkload();
  const std::vector<Submission> first_pass = workload;
  workload.insert(workload.end(), first_pass.begin(), first_pass.end());

  std::vector<Result> expected;
  expected.reserve(workload.size());
  for (const Submission& sub : workload) expected.push_back(Reference(*state_, sub));

  ServiceOptions options;
  options.num_threads = 8;
  options.cache_budget_bytes = size_t{32} << 20;
  QueryService service(state_, options);
  ASSERT_EQ(service.num_threads(), 8u);

  std::vector<uint64_t> tickets;
  tickets.reserve(workload.size());
  for (const Submission& sub : workload) {
    tickets.push_back(service.Submit(sub.query, sub.options));
  }
  const std::vector<Result> results = service.Drain();

  ASSERT_EQ(results.size(), workload.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ticket, tickets[i]) << "Drain must keep submit order";
    dbsa::testing::ExpectSamePayload(results[i], expected[i],
                                     "request " + std::to_string(i));
  }

  // The duplicated half must have found the region approximations in the
  // cache: every (polygon, level) pair is built at most once.
  const ApproxCache::Stats stats = service.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.bytes_used, stats.budget_bytes);
}

TEST_F(QueryServiceTest, TypedFutureInterface) {
  QueryService service(state_, {});
  const geom::Polygon star =
      dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const std::vector<Submission> subs = {
      AggregateAt(join::AggKind::kCount, core::Attr::kNone, 8.0,
                  core::Mode::kPointIndex),
      CountAt(star, 8.0), SelectAt(star, 8.0)};
  std::vector<std::future<Result>> futures;
  for (const Submission& sub : subs) {
    futures.push_back(service.Execute(sub.query, sub.options));
  }
  for (size_t i = 0; i < subs.size(); ++i) {
    dbsa::testing::ExpectSamePayload(futures[i].get(), Reference(*state_, subs[i]),
                                     subs[i].label);
  }
}

TEST_F(QueryServiceTest, WarmCacheMakesAggregatesMissFree) {
  QueryService service(state_, {});
  service.WarmCache(8.0);
  const size_t polys = service.state().regions->NumPolygons();
  EXPECT_EQ(service.cache_stats().misses, polys);

  const core::AggregateAnswer answer = PointIndexCount(service);
  EXPECT_EQ(answer.stats.hr_cache_misses, 0u);
  EXPECT_EQ(answer.stats.hr_cache_hits, polys);
}

TEST_F(QueryServiceTest, ColdAggregateReportsMissesThenHits) {
  QueryService service(state_, {});
  const size_t polys = service.state().regions->NumPolygons();
  const core::AggregateAnswer cold = PointIndexCount(service);
  EXPECT_EQ(cold.stats.hr_cache_misses, polys);
  const core::AggregateAnswer warm = PointIndexCount(service);
  EXPECT_EQ(warm.stats.hr_cache_misses, 0u);
  EXPECT_EQ(warm.stats.hr_cache_hits, polys);
}

TEST_F(QueryServiceTest, DrainSurvivesPoisonedQueriesMidBatch) {
  // Regression: Drain used to call future.get() bare — the first
  // throwing query aborted the drain, lost every later result and left
  // the abandoned futures to block elsewhere. Now each failed ticket
  // surfaces as an error Result in its submission slot and the drain
  // completes.
  QueryService service(state_, {});
  const geom::Polygon star =
      dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
  const geom::Polygon degenerate(geom::Ring{{0, 0}, {10, 10}});  // 2 vertices.

  std::vector<Submission> workload;
  workload.push_back(CountAt(star, 8.0));  // Good.
  workload.push_back(AggregateAt(join::AggKind::kSum, core::Attr::kNone,
                                 8.0));    // Poisoned: SUM w/o column.
  workload.push_back(CountAt(star, 8.0));  // Good.
  workload.push_back(CountAt(degenerate, 8.0));  // Poisoned: 2 vertices.
  workload.push_back(SelectAt(star, 8.0));       // Good.

  std::vector<uint64_t> tickets;
  for (const Submission& sub : workload) {
    tickets.push_back(service.Submit(sub.query, sub.options));
  }
  const std::vector<Result> results = service.Drain();

  ASSERT_EQ(results.size(), workload.size());  // No ticket lost.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].ticket, tickets[i]) << "ticket order kept, slot " << i;
    EXPECT_EQ(results[i].kind, workload[i].query.kind()) << "slot " << i;
  }
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[1].status.message().find("attribute"), std::string::npos)
      << results[1].status.ToString();
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(results[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[3].status.message().find("vertices"), std::string::npos)
      << results[3].status.ToString();
  EXPECT_TRUE(results[4].ok());

  // The good results are untouched by their poisoned neighbours.
  const Result want = Reference(*state_, workload[0]);
  for (const size_t good : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(results[good].range.lo, want.range.lo);
    EXPECT_EQ(results[good].range.hi, want.range.hi);
  }
  EXPECT_EQ(results[4].ids, Reference(*state_, workload[4]).ids);

  // And the service stays fully usable after a poisoned batch.
  service.Submit(workload[0].query, workload[0].options);
  const std::vector<Result> after = service.Drain();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok());
  EXPECT_EQ(after[0].range.hi, want.range.hi);
}

TEST_F(QueryServiceTest, SharedSnapshotServesManyServices) {
  // Two services over one snapshot: no copies of the tables or index, and
  // identical answers.
  ServiceOptions options;
  options.num_threads = 2;
  QueryService a(state_, options);
  QueryService b(state_, options);
  const Submission sum = AggregateAt(join::AggKind::kSum, core::Attr::kFare, 8.0);
  const Result ra = a.Execute(sum.query, sum.options).get();
  const Result rb = b.Execute(sum.query, sum.options).get();
  dbsa::testing::ExpectSamePayload(ra, rb, "shared snapshot");
}

TEST_F(QueryServiceTest, AutoModeMatchesTheEngine) {
  // The service's HR cache never steers kAuto: it resolves to the plan
  // the hook-less engine picks, answers byte-identically, and explains
  // itself.
  QueryService service(state_, {});
  for (const double eps : {1.0, 8.0, 64.0}) {
    const Submission count =
        AggregateAt(join::AggKind::kCount, core::Attr::kNone, eps);
    const Result got = service.Execute(count.query, count.options).get();
    const Result want = Reference(*state_, count);
    dbsa::testing::ExpectSamePayload(got, want, "eps " + std::to_string(eps));
    EXPECT_EQ(got.aggregate.stats.plan, want.aggregate.stats.plan) << eps;
    EXPECT_EQ(got.aggregate.stats.explain, want.aggregate.stats.explain) << eps;
    EXPECT_FALSE(got.aggregate.stats.explain.empty()) << eps;
    EXPECT_FALSE(got.aggregate.rows.empty()) << eps;
  }
}

}  // namespace
}  // namespace dbsa::service
