// Unit tests for the service approximation cache: LRU eviction under a
// memory budget, single-flight construction, and polygon fingerprints.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "raster/grid.h"
#include "raster/verify.h"
#include "service/approx_cache.h"
#include "test_util.h"

namespace dbsa::service {
namespace {

class ApproxCacheTest : public ::testing::Test {
 protected:
  ApproxCacheTest() : grid_({0, 0}, 1024.0) {}

  /// A distinct polygon per id (shifted rectangles).
  geom::Polygon PolyFor(int id) const {
    const double x0 = 64.0 + 8.0 * id;
    return dbsa::testing::MakeRectPolygon(x0, 64.0, x0 + 200.0, 300.0);
  }

  raster::HierarchicalRaster BuildFor(int id, int level) const {
    return raster::HierarchicalRaster::BuildLevel(PolyFor(id), grid_, level);
  }

  size_t BytesFor(int id, int level) const {
    return BuildFor(id, level).MemoryBytes();
  }

  raster::Grid grid_;
};

TEST_F(ApproxCacheTest, HitsAndMissesAreCounted) {
  ApproxCache cache(size_t{16} << 20);
  int builds = 0;
  const auto builder = [&]() {
    ++builds;
    return BuildFor(0, 6);
  };
  const ApproxCache::HrPtr first = cache.GetOrBuild(0, 6, builder);
  const ApproxCache::HrPtr second = cache.GetOrBuild(0, 6, builder);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());  // Shared, not rebuilt.
  const ApproxCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_used, 0u);

  // A different level of the same object is a distinct entry.
  cache.GetOrBuild(0, 7, [&]() { return BuildFor(0, 7); });
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(ApproxCacheTest, EvictsLeastRecentlyUsedToRespectBudget) {
  const int level = 6;
  const size_t one = BytesFor(0, level);
  // Room for three entries, not four.
  ApproxCache cache(3 * one + one / 2);
  for (int id = 0; id < 3; ++id) {
    cache.GetOrBuild(id, level, [&]() { return BuildFor(id, level); });
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch id 0 so id 1 is the LRU victim, then overflow.
  EXPECT_NE(cache.GetOrBuild(0, level, [&]() { return BuildFor(0, level); }),
            nullptr);
  cache.GetOrBuild(3, level, [&]() { return BuildFor(3, level); });

  const ApproxCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_used, stats.budget_bytes);
  // Survivors answer without building. The victim goes last: rebuilding
  // it evicts another entry.
  bool built = true;
  cache.GetOrBuild(0, level, [&]() { return BuildFor(0, level); }, &built);
  EXPECT_FALSE(built);  // Recently touched: kept.
  cache.GetOrBuild(3, level, [&]() { return BuildFor(3, level); }, &built);
  EXPECT_FALSE(built);  // Newest: kept.
  cache.GetOrBuild(1, level, [&]() { return BuildFor(1, level); }, &built);
  EXPECT_TRUE(built);  // LRU: evicted.
}

TEST_F(ApproxCacheTest, OversizedEntryIsReturnedButNotCached) {
  ApproxCache cache(/*budget_bytes=*/1);
  const ApproxCache::HrPtr hr =
      cache.GetOrBuild(0, 6, [&]() { return BuildFor(0, 6); });
  ASSERT_NE(hr, nullptr);
  EXPECT_GT(hr->NumCells(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST_F(ApproxCacheTest, ThrowingBuilderLeavesTheKeyRetryable) {
  ApproxCache cache(size_t{16} << 20);
  EXPECT_THROW(cache.GetOrBuild(
                   0, 6, [&]() -> raster::HierarchicalRaster {
                     throw std::runtime_error("build failed");
                   }),
               std::runtime_error);
  // The failure must not poison the key: the next request builds.
  const ApproxCache::HrPtr hr =
      cache.GetOrBuild(0, 6, [&]() { return BuildFor(0, 6); });
  ASSERT_NE(hr, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(ApproxCacheTest, ConcurrentRequestsForOneKeyBuildOnce) {
  ApproxCache cache(size_t{16} << 20);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<ApproxCache::HrPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      results[t] = cache.GetOrBuild(42, 6, [&]() {
        builds.fetch_add(1);
        // Widen the race window so waiters really pile onto the future.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return BuildFor(0, 6);
      });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);  // Single-flight.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  const ApproxCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<size_t>(kThreads - 1));
}

TEST(PolygonFingerprintTest, DistinguishesGeometry) {
  const geom::Polygon a = dbsa::testing::MakeRectPolygon(0, 0, 10, 10);
  const geom::Polygon a2 = dbsa::testing::MakeRectPolygon(0, 0, 10, 10);
  const geom::Polygon b = dbsa::testing::MakeRectPolygon(0, 0, 10, 11);
  const geom::Polygon star =
      dbsa::testing::MakeStarPolygon({50, 50}, 10, 30, 12, 7);
  EXPECT_TRUE(PolygonFingerprint(a) == PolygonFingerprint(a2));
  EXPECT_TRUE(PolygonFingerprint(a) != PolygonFingerprint(b));
  EXPECT_TRUE(PolygonFingerprint(a) != PolygonFingerprint(star));
  // The ad-hoc namespace bit never collides with region polygon indexes.
  EXPECT_NE(PolygonFingerprint(a).hi & (1ULL << 63), 0u);
  // The two 64-bit words are independent streams, not one value reused.
  EXPECT_NE(PolygonFingerprint(a).lo, PolygonFingerprint(a).hi & ~(1ULL << 63));
}

TEST(PolygonFingerprintTest, RingStructureChangesTheFingerprint) {
  // Same vertex byte stream, chunked differently into rings: one hexagon
  // vs a triangle with a triangular hole. A hash over raw bytes alone
  // would collide; the structure mix must not.
  const geom::Ring all{{0, 0}, {40, 0}, {20, 30}, {10, 10}, {30, 10}, {20, 24}};
  const geom::Polygon one_ring(all);
  const geom::Polygon two_rings(geom::Ring{{0, 0}, {40, 0}, {20, 30}},
                                {geom::Ring{{10, 10}, {30, 10}, {20, 24}}});
  EXPECT_TRUE(PolygonFingerprint(one_ring) != PolygonFingerprint(two_rings));
}

TEST(GeometrySummaryTest, MatchesIdenticalRejectsDifferent) {
  const geom::Polygon a = dbsa::testing::MakeRectPolygon(0, 0, 10, 10);
  const geom::Polygon b = dbsa::testing::MakeRectPolygon(0, 0, 10, 11);
  EXPECT_TRUE(GeometrySummary::Of(a).Matches(GeometrySummary::Of(a)));
  EXPECT_FALSE(GeometrySummary::Of(a).Matches(GeometrySummary::Of(b)));
}

TEST_F(ApproxCacheTest, FingerprintCollisionIsDetectedNotServed) {
  // Adversarial setup: two distinct polygons forced onto the SAME 128-bit
  // key (the worst case a real hash collision would produce). With the
  // geometry passed for verification, the cache must detect the mismatch,
  // discard the stale entry and rebuild — never serve the wrong HR.
  ApproxCache cache(size_t{16} << 20);
  const ObjectKey colliding_key(0x8000000000001234ULL, 0x5678ULL);
  const geom::Polygon poly_a = PolyFor(0);
  const geom::Polygon poly_b = PolyFor(40);  // Disjoint footprint from A.

  bool built = false;
  const ApproxCache::HrPtr hr_a = cache.GetOrBuild(
      colliding_key, 6, [&]() { return BuildFor(0, 6); }, &built, &poly_a);
  EXPECT_TRUE(built);

  // Same key, different geometry: must NOT serve A's approximation.
  const ApproxCache::HrPtr hr_b = cache.GetOrBuild(
      colliding_key, 6, [&]() { return BuildFor(40, 6); }, &built, &poly_b);
  EXPECT_TRUE(built);
  EXPECT_NE(hr_a.get(), hr_b.get());
  // B's approximation covers B's footprint, not A's (the rectangles'
  // centres).
  EXPECT_NE(raster::Classify(*hr_b, {484, 182}, grid_), raster::CellKind::kOutside);
  EXPECT_EQ(raster::Classify(*hr_b, {164, 182}, grid_), raster::CellKind::kOutside);
  EXPECT_EQ(cache.stats().collisions, 1u);

  // Without verification geometry the key is trusted (region-table ids).
  const ApproxCache::HrPtr again = cache.GetOrBuild(
      colliding_key, 6, [&]() { return BuildFor(40, 6); }, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(again.get(), hr_b.get());
}

TEST_F(ApproxCacheTest, VerifiedHitDoesNotRebuild) {
  ApproxCache cache(size_t{16} << 20);
  const geom::Polygon poly = PolyFor(3);
  const ObjectKey key = PolygonFingerprint(poly);
  bool built = false;
  const ApproxCache::HrPtr first = cache.GetOrBuild(
      key, 6, [&]() { return BuildFor(3, 6); }, &built, &poly);
  EXPECT_TRUE(built);
  const ApproxCache::HrPtr second = cache.GetOrBuild(
      key, 6, [&]() { return BuildFor(3, 6); }, &built, &poly);
  EXPECT_FALSE(built);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().collisions, 0u);
}

}  // namespace
}  // namespace dbsa::service
