#include "rng/stat_tests.h"

#include <cmath>

#include "common/check.h"

namespace lightrw::rng {

double StdNormalUpperTail(double z) {
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

ChiSquareResult ChiSquareTest(std::span<const uint64_t> observed,
                              std::span<const double> expected) {
  LIGHTRW_CHECK_EQ(observed.size(), expected.size());
  LIGHTRW_CHECK_GE(observed.size(), 2u);
  double stat = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    LIGHTRW_CHECK_GT(expected[i], 0.0);
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  ChiSquareResult result;
  result.statistic = stat;
  result.degrees_of_freedom = static_cast<double>(observed.size() - 1);
  result.p_value = ChiSquareUpperTail(stat, result.degrees_of_freedom);
  return result;
}

double ChiSquareUpperTail(double statistic, double df) {
  LIGHTRW_CHECK_GT(df, 0.0);
  // Wilson-Hilferty: (X/df)^(1/3) is approximately normal with
  // mean 1 - 2/(9 df) and variance 2/(9 df).
  const double t = std::cbrt(statistic / df);
  const double mu = 1.0 - 2.0 / (9.0 * df);
  const double sigma = std::sqrt(2.0 / (9.0 * df));
  return StdNormalUpperTail((t - mu) / sigma);
}

ChiSquareResult ChiSquareUniform32(std::span<const uint32_t> samples,
                                   size_t num_bins) {
  LIGHTRW_CHECK_GE(num_bins, 2u);
  std::vector<uint64_t> observed(num_bins, 0);
  for (uint32_t s : samples) {
    // Map the full 32-bit range onto num_bins equal bins.
    const size_t bin = static_cast<size_t>(
        (static_cast<uint64_t>(s) * num_bins) >> 32);
    ++observed[bin];
  }
  std::vector<double> expected(
      num_bins, static_cast<double>(samples.size()) / num_bins);
  return ChiSquareTest(observed, expected);
}

namespace {

double ToUnit(uint32_t x) { return static_cast<double>(x) * 0x1.0p-32; }

}  // namespace

double PearsonCorrelation32(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  LIGHTRW_CHECK_EQ(a.size(), b.size());
  LIGHTRW_CHECK_GE(a.size(), 2u);
  const size_t n = a.size();
  double mean_a = 0.0, mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += ToUnit(a[i]);
    mean_b += ToUnit(b[i]);
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = ToUnit(a[i]) - mean_a;
    const double db = ToUnit(b[i]) - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a == 0.0 || var_b == 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(var_a * var_b);
}

double SerialCorrelation32(std::span<const uint32_t> samples) {
  LIGHTRW_CHECK_GE(samples.size(), 3u);
  return PearsonCorrelation32(samples.subspan(0, samples.size() - 1),
                              samples.subspan(1));
}

}  // namespace lightrw::rng
