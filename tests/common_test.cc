#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/histogram.h"
#include "common/status.h"

namespace lightrw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = InvalidArgumentError("bad weight");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad weight");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad weight");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_EQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FAILED_PRECONDITION");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  ASSERT_TRUE(v.ok());
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(BitsTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
  EXPECT_EQ(CeilDiv(33, 16), 3u);
}

TEST(BitsTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 8), 0u);
  EXPECT_EQ(RoundUp(1, 8), 8u);
  EXPECT_EQ(RoundUp(8, 8), 8u);
  EXPECT_EQ(RoundUp(9, 8), 16u);
}

TEST(BitsTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(6));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

TEST(BitsTest, Logs) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 3.0);
}

TEST(SampleStatsTest, QuantileInterpolation) {
  SampleStats stats;
  stats.Add(0.0);
  stats.Add(10.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), 10.0);
}

TEST(SampleStatsTest, EmptyAccumulatorIsDefined) {
  SampleStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.99), 0.0);
  EXPECT_TRUE(stats.sorted_samples().empty());
}

TEST(SampleStatsTest, SingleSample) {
  SampleStats stats;
  stats.Add(7.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 7.5);
  EXPECT_DOUBLE_EQ(stats.Min(), 7.5);
  EXPECT_DOUBLE_EQ(stats.Max(), 7.5);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(stats.Quantile(1.0), 7.5);
}

TEST(SampleStatsTest, SortedSamplesAccessor) {
  SampleStats stats;
  stats.Add(3.0);
  stats.Add(1.0);
  stats.Add(2.0);
  const std::vector<double> expected = {1.0, 2.0, 3.0};
  EXPECT_EQ(stats.sorted_samples(), expected);
}

TEST(SampleStatsTest, ExactQuantileBoundariesArePinned) {
  // 101 samples 0..100: under Hyndman-Fan type 7 the rank of quantile q
  // is q*100, so p50/p99 land exactly on stored order statistics. The
  // boundary pinning must return those samples bit-for-bit even though
  // e.g. 0.99 * 100 is not exactly 99.0 in binary floating point.
  SampleStats stats;
  for (int i = 100; i >= 0; --i) {
    stats.Add(static_cast<double>(i));
  }
  EXPECT_EQ(stats.Quantile(0.5), 50.0);
  EXPECT_EQ(stats.Quantile(0.99), 99.0);
  EXPECT_EQ(stats.Quantile(0.01), 1.0);
  EXPECT_EQ(stats.Quantile(0.0), stats.Min());
  EXPECT_EQ(stats.Quantile(1.0), stats.Max());
}

TEST(SampleStatsTest, MilliQuantileBoundaryOverThousandAndOneSamples) {
  // 1001 samples: p999 rank is 0.999 * 1000 = 999 exactly — the
  // second-largest sample, not an interpolation toward the maximum.
  SampleStats stats;
  for (int i = 0; i <= 1000; ++i) {
    stats.Add(static_cast<double>(i));
  }
  EXPECT_EQ(stats.Quantile(0.999), 999.0);
  EXPECT_EQ(stats.Quantile(0.5), 500.0);
  EXPECT_EQ(stats.Quantile(0.99), 990.0);
}

TEST(SampleStatsTest, InteriorQuantilesInterpolateLinearly) {
  // 4 samples: rank h = q*3. q=0.5 -> h=1.5 -> midpoint of x[1], x[2];
  // q=0.9 -> h=2.7 -> 0.3*x[2] + 0.7*x[3].
  SampleStats stats;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.Quantile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(stats.Quantile(0.9), 37.0);
}

TEST(SampleStatsTest, QuantileAfterInterleavedAdds) {
  SampleStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 5.0);
  stats.Add(1.0);  // must resort lazily
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
}

}  // namespace
}  // namespace lightrw
