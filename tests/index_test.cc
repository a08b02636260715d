// Tests for the 1-D index layer: sorted arrays + prefix sums, the static
// B+-tree, and the RadixSpline learned index. Property: all three search
// strategies agree with std::lower_bound on every distribution tried.

#include <gtest/gtest.h>

#include <algorithm>

#include "index/btree.h"
#include "index/radix_spline.h"
#include "index/sorted_array.h"
#include "util/random.h"

namespace dbsa::index {
namespace {

std::vector<uint64_t> MakeKeys(const std::string& distribution, size_t n,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  if (distribution == "uniform") {
    for (auto& k : keys) k = rng.Next() >> 16;
  } else if (distribution == "clustered") {
    uint64_t base = 0;
    for (auto& k : keys) {
      if (rng.Bernoulli(0.01)) base += rng.Below(1u << 30);
      k = base + rng.Below(1024);
    }
  } else if (distribution == "duplicates") {
    for (auto& k : keys) k = rng.Below(64) * 1000003;  // Long runs.
  } else if (distribution == "sequential") {
    for (size_t i = 0; i < n; ++i) keys[i] = i * 7;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// COUNT and SUM over the keys in [lo, hi] the way the point index asks
// for them: two lower-bound positions, then the prefix sums between them.
size_t RangeCount(const PrefixSumIndex& idx, uint64_t lo, uint64_t hi) {
  return idx.CountBetween(idx.keys().LowerBound(lo), idx.keys().LowerBound(hi + 1));
}
double RangeSum(const PrefixSumIndex& idx, uint64_t lo, uint64_t hi) {
  return idx.SumPairBetween(idx.keys().LowerBound(lo), idx.keys().LowerBound(hi + 1))
      .Rounded();
}

TEST(SortedKeyArrayTest, LowerBoundBasics) {
  const SortedKeyArray arr = SortedKeyArray::Build({5, 1, 3, 3, 9});
  EXPECT_EQ(arr.LowerBound(0), 0u);
  EXPECT_EQ(arr.LowerBound(1), 0u);
  EXPECT_EQ(arr.LowerBound(2), 1u);
  EXPECT_EQ(arr.LowerBound(3), 1u);
  EXPECT_EQ(arr.LowerBound(4), 3u);
  EXPECT_EQ(arr.LowerBound(10), 5u);
  EXPECT_EQ(arr.LowerBound(UINT64_MAX), 5u);
}

TEST(SortedKeyArrayTest, AgreesWithStdOnRandomKeys) {
  for (const char* dist : {"uniform", "clustered", "duplicates", "sequential"}) {
    const auto keys = MakeKeys(dist, 5000, 42);
    const SortedKeyArray arr = SortedKeyArray::Build(keys);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t q = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng.Next() >> 16;
      const size_t expected =
          std::lower_bound(keys.begin(), keys.end(), q) - keys.begin();
      ASSERT_EQ(arr.LowerBound(q), expected) << dist << " q=" << q;
    }
  }
}

TEST(PrefixSumIndexTest, RangeCountAndSum) {
  PrefixSumIndex idx = PrefixSumIndex::Build({10, 20, 30, 40, 50},
                                             {1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(RangeCount(idx, 10, 50), 5u);
  EXPECT_EQ(RangeCount(idx, 15, 45), 3u);
  EXPECT_EQ(RangeCount(idx, 51, 100), 0u);
  EXPECT_DOUBLE_EQ(RangeSum(idx, 20, 40), 2.0 + 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(RangeSum(idx, 0, 9), 0.0);
}

TEST(PrefixSumIndexTest, UnsortedInputIsReorderedWithValues) {
  PrefixSumIndex idx = PrefixSumIndex::Build({30, 10, 20}, {3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(RangeSum(idx, 10, 10), 1.0);
  EXPECT_DOUBLE_EQ(RangeSum(idx, 10, 20), 3.0);
  EXPECT_DOUBLE_EQ(RangeSum(idx, 10, 30), 6.0);
}

TEST(PrefixSumIndexTest, MatchesBruteForceOnRandomData) {
  Rng rng(11);
  std::vector<uint64_t> keys(3000);
  std::vector<double> vals(3000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Below(10000);
    vals[i] = rng.Uniform(0, 10);
  }
  const PrefixSumIndex idx = PrefixSumIndex::Build(keys, vals);
  for (int t = 0; t < 300; ++t) {
    uint64_t lo = rng.Below(10000), hi = rng.Below(10000);
    if (lo > hi) std::swap(lo, hi);
    size_t count = 0;
    double sum = 0.0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] >= lo && keys[i] <= hi) {
        ++count;
        sum += vals[i];
      }
    }
    ASSERT_EQ(RangeCount(idx, lo, hi), count);
    ASSERT_NEAR(RangeSum(idx, lo, hi), sum, 1e-6);
  }
}

TEST(StaticBTreeTest, RanksAgreeWithStd) {
  for (const char* dist : {"uniform", "clustered", "duplicates", "sequential"}) {
    const auto keys = MakeKeys(dist, 20000, 5);
    const StaticBTree tree = StaticBTree::Build(keys);
    Rng rng(13);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t q = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng.Next() >> 16;
      const size_t expected =
          std::lower_bound(keys.begin(), keys.end(), q) - keys.begin();
      ASSERT_EQ(tree.LowerBoundRank(q), expected) << dist << " q=" << q;
    }
  }
}

TEST(StaticBTreeTest, EmptyAndTiny) {
  const std::vector<uint64_t> empty;
  EXPECT_EQ(StaticBTree::Build(empty).LowerBoundRank(5), 0u);
  const std::vector<uint64_t> one{42};
  const StaticBTree t = StaticBTree::Build(one);
  EXPECT_EQ(t.LowerBoundRank(41), 0u);
  EXPECT_EQ(t.LowerBoundRank(42), 0u);
  EXPECT_EQ(t.LowerBoundRank(43), 1u);
}

class RadixSplineParamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, size_t>> {};

TEST_P(RadixSplineParamTest, LookupProtocolFindsLowerBound) {
  const auto [dist, radix_bits, err] = GetParam();
  const auto keys = MakeKeys(dist, 30000, 3);
  const RadixSpline rs = RadixSpline::Build(keys, radix_bits, err);
  const SortedKeyArray arr = SortedKeyArray::Build(keys);
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t q = i % 2 == 0 ? keys[rng.Below(keys.size())] : rng.Next() >> 16;
    const size_t expected =
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin();
    const SearchBound b = rs.Lookup(q);
    // The window start never overshoots the answer...
    ASSERT_LE(b.begin, expected) << dist << " q=" << q;
    // ...and the caller protocol (bounded search + fall-through past the
    // window end for duplicate runs) lands exactly.
    size_t pos = arr.LowerBoundFrom(q, b.begin, b.end);
    if (pos == b.end && pos < keys.size()) {
      pos = arr.LowerBoundFrom(q, pos, keys.size());
    }
    ASSERT_EQ(pos, expected) << dist << " q=" << q;
    // Keys present in the data are always inside the window itself.
    if (i % 2 == 0) {
      ASSERT_GE(b.end, expected + 1) << dist << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RadixSplineParamTest,
    ::testing::Combine(::testing::Values("uniform", "clustered", "duplicates",
                                         "sequential"),
                       ::testing::Values(8, 16), ::testing::Values(4u, 32u, 256u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int, size_t>>& info) {
      return std::get<0>(info.param) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_e" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RadixSplineTest, WindowWidthRespectsError) {
  const auto keys = MakeKeys("uniform", 50000, 9);
  for (const size_t err : {8u, 64u}) {
    const RadixSpline rs = RadixSpline::Build(keys, 16, err);
    Rng rng(19);
    double total_width = 0;
    const int probes = 2000;
    for (int i = 0; i < probes; ++i) {
      const uint64_t q = keys[rng.Below(keys.size())];
      const SearchBound b = rs.Lookup(q);
      total_width += static_cast<double>(b.end - b.begin);
    }
    // Mean window stays within a small multiple of the configured error
    // (the build measures the real corridor error, <= ~2x configured).
    EXPECT_LE(total_width / probes, 5.0 * static_cast<double>(err) + 4.0)
        << "err " << err;
  }
}

TEST(RadixSplineTest, FewerSplinePointsWithLargerError) {
  const auto keys = MakeKeys("clustered", 50000, 21);
  const RadixSpline tight = RadixSpline::Build(keys, 16, 4);
  const RadixSpline loose = RadixSpline::Build(keys, 16, 256);
  EXPECT_LT(loose.NumSplinePoints(), tight.NumSplinePoints());
  EXPECT_LT(loose.MemoryBytes(), tight.MemoryBytes() + 1);
}

TEST(RadixSplineTest, EmptyAndSingleton) {
  const std::vector<uint64_t> empty;
  const RadixSpline rs0 = RadixSpline::Build(empty, 8, 32);
  EXPECT_EQ(rs0.Lookup(123).begin, 0u);
  const std::vector<uint64_t> one{7};
  const RadixSpline rs1 = RadixSpline::Build(one, 8, 32);
  const SearchBound b = rs1.Lookup(7);
  EXPECT_EQ(b.begin, 0u);
  EXPECT_GE(b.end, 1u);
  EXPECT_EQ(rs1.Lookup(8).begin, 1u);
}

}  // namespace
}  // namespace dbsa::index
