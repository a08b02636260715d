// Tests for the util module: Status/StatusOr, RNG determinism, stats,
// table printer.

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace dbsa {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status err = Status::InvalidArgument("bad ring");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad ring");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value(), 42);

  StatusOr<int> err(Status::NotFound("nope"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
  Rng c(124);
  EXPECT_NE(Rng(123).Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const double v = rng.Uniform(10, 20);
    ASSERT_GE(v, 10.0);
    ASSERT_LT(v, 20.0);
    const int64_t r = rng.Range(-3, 3);
    ASSERT_GE(r, -3);
    ASSERT_LE(r, 3);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  RunningStats stats;
  double squares = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.Gaussian(10.0, 2.0);
    stats.Add(x);
    squares += (x - 10.0) * (x - 10.0);
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(squares / 100000), 2.0, 0.05);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(PercentilesTest, OrderStatistics) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_NEAR(p.Median(), 50.5, 0.01);
  EXPECT_NEAR(p.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.Percentile(90), 90.1, 0.2);
}

TEST(HumanFormatTest, BytesAndCounts) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(150000000), "143.1 MB");
  EXPECT_EQ(HumanCount(1200000000.0), "1.2B");
  EXPECT_EQ(HumanCount(39200.0), "39.2K");
  EXPECT_EQ(HumanCount(42.0), "42");
}

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::Num(1.5)});
  table.AddRow({"b", "2"});
  // Smoke: printing to a memory stream via tmpfile.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  table.Print(f);
  std::fclose(f);
  EXPECT_EQ(TablePrinter::Num(3.14159, 3), "3.14");
}

}  // namespace
}  // namespace dbsa
