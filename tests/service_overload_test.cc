// Closed-loop overload tests for the admission-control layer of
// QueryService (ServiceOptions::max_inflight / shed_inflight_threshold):
//
//   * saturating the in-flight depth sheds new queries with a typed
//     kUnavailable Result — immediately, before any pool enqueue or HR
//     build, and without ever losing a query (every Execute future
//     resolves to exactly one Result);
//   * queries that ARE admitted under overload answer with the same
//     payload as the unloaded single-threaded engine (degradation must
//     never corrupt, only reject);
//   * bounded in-flight backpressure (max_inflight) blocks submitters at
//     the cap instead of queueing unboundedly, and a closed loop of
//     clients over it completes every query — no deadlock, no loss;
//   * dbsa_shed_total and dbsa_inflight_depth are scrapable and track
//     the admission decisions.
//
// Runs under TSan in CI: the admission path races client threads against
// pool workers by construction.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dbsa.h"
#include "service/query_service.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

class ServiceOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::TaxiConfig taxi_config;
    taxi_config.universe = geom::Box(0, 0, 4096, 4096);
    data::RegionConfig region_config;
    region_config.universe = taxi_config.universe;
    region_config.num_polygons = 8;
    region_config.target_avg_vertices = 24;
    state_ = core::BuildEngineState(data::GenerateTaxiPoints(20000, taxi_config),
                                    data::GenerateRegions(region_config));

    poly_ = dbsa::testing::MakeStarPolygon({2000, 2000}, 400, 900, 16, 11);
    want_ = core::ExecuteCount(*state_, poly_, Bound8().bound).range;
  }

  Query CountQuery() const { return Query::Count(poly_); }
  static ExecOptions Bound8() {
    ExecOptions options;
    options.bound = query::ErrorBound::Absolute(8.0);
    return options;
  }

  std::shared_ptr<const core::EngineState> state_;
  geom::Polygon poly_;
  join::ResultRange want_;
};

TEST_F(ServiceOverloadTest, SaturationShedsTypedAndNeverLosesAQuery) {
  ServiceOptions options;
  options.num_threads = 1;  // One worker: submission outruns execution.
  options.shed_inflight_threshold = 3;
  QueryService service(state_, options);

  constexpr size_t kQueries = 32;
  std::vector<std::future<Result>> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    futures.push_back(service.Execute(CountQuery(), Bound8()));
  }

  // The hard invariant: every future resolves, in submission order, to
  // one Result — shedding must never hang a future or lose a query.
  std::vector<Result> results;
  results.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "slot " << i;
    results.push_back(futures[i].get());
  }
  size_t shed = 0, served = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].kind, QueryKind::kCount) << "slot " << i;
    if (results[i].ok()) {
      ++served;
      // Admitted-under-load answers are byte-identical to the unloaded
      // engine: overload degrades availability, never correctness.
      EXPECT_EQ(results[i].range.estimate, want_.estimate) << "slot " << i;
      EXPECT_EQ(results[i].range.lo, want_.lo) << "slot " << i;
      EXPECT_EQ(results[i].range.hi, want_.hi) << "slot " << i;
    } else {
      ++shed;
      EXPECT_EQ(results[i].status.code(), StatusCode::kUnavailable)
          << "slot " << i << ": " << results[i].status.ToString();
      EXPECT_NE(results[i].status.message().find("overloaded"),
                std::string::npos)
          << results[i].status.message();
    }
  }
  // The first query was admitted at depth 0; a one-worker pool cannot
  // finish 3 admissions faster than a tight submit loop refills them.
  EXPECT_GE(served, 1u);
  EXPECT_GE(shed, 1u);

  // The decisions are observable: the shed counter matches the shed
  // Results and the depth gauge exists.
  EXPECT_EQ(service.registry()->GetCounter("dbsa_shed_total")->Value(),
            static_cast<double>(shed));
  const std::string scrape = service.registry()->RenderText();
  EXPECT_NE(scrape.find("dbsa_shed_total"), std::string::npos);
  EXPECT_NE(scrape.find("dbsa_inflight_depth"), std::string::npos);

  // The service recovers: with the load gone, fresh queries serve.
  const Result after = service.Execute(CountQuery(), Bound8()).get();
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_EQ(after.range.hi, want_.hi);
}

TEST_F(ServiceOverloadTest, ExecuteShedsImmediatelyWhileSaturated) {
  ServiceOptions options;
  options.num_threads = 1;
  options.shed_inflight_threshold = 2;
  QueryService service(state_, options);

  // Fill the admission window, then probe: the shed future must be
  // ready at once (no pool trip) and typed.
  std::vector<std::future<Result>> window;
  for (size_t i = 0; i < 16; ++i) {
    window.push_back(service.Execute(CountQuery(), Bound8()));
  }
  std::future<Result> probe = service.Execute(CountQuery(), Bound8());
  ASSERT_EQ(probe.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a shed Execute must resolve without touching the pool";
  const Result shed = probe.get();
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  for (std::future<Result>& f : window) f.get();  // Every query still resolves.
}

TEST_F(ServiceOverloadTest, BoundedInflightClosedLoopCompletesEverything) {
  ServiceOptions options;
  options.num_threads = 2;
  options.max_inflight = 2;  // Backpressure: callers block at the cap.
  QueryService service(state_, options);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::vector<std::thread> clients;
  std::vector<Status> failures[kClients];
  std::atomic<size_t> correct{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t i = 0; i < kPerClient; ++i) {
        const Result r = service.Execute(CountQuery(), Bound8()).get();
        if (!r.ok()) {
          failures[c].push_back(r.status);
        } else if (r.range.estimate == want_.estimate &&
                   r.range.lo == want_.lo && r.range.hi == want_.hi) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // No query may be rejected (max_inflight blocks, it does not shed),
  // none may be lost, and every payload matches the unloaded engine.
  for (size_t c = 0; c < kClients; ++c) {
    for (const Status& s : failures[c]) {
      ADD_FAILURE() << "client " << c << ": " << s.ToString();
    }
  }
  EXPECT_EQ(correct.load(), kClients * kPerClient);
  EXPECT_EQ(service.registry()->GetCounter("dbsa_shed_total")->Value(), 0.0);
}

}  // namespace
}  // namespace dbsa::service
