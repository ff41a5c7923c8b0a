// Statistical test helpers used to validate RNG quality and sampler
// correctness. The paper validates ThundeRiNG with TestU01; here we use
// chi-square goodness-of-fit and correlation statistics, which are
// sufficient to catch broken decorrelation or biased samplers in tests.

#ifndef LIGHTRW_RNG_STAT_TESTS_H_
#define LIGHTRW_RNG_STAT_TESTS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace lightrw::rng {

// Result of a chi-square goodness-of-fit test.
struct ChiSquareResult {
  double statistic = 0.0;
  double degrees_of_freedom = 0.0;
  // Upper-tail p-value via the Wilson-Hilferty normal approximation;
  // accurate enough for pass/fail thresholds at df >= 5.
  double p_value = 0.0;
};

// Tests observed bucket counts against expected counts.
// observed.size() == expected.size() >= 2.
ChiSquareResult ChiSquareTest(std::span<const uint64_t> observed,
                              std::span<const double> expected);

// Upper-tail p-value of a chi-square statistic with `df` > 0 degrees of
// freedom, by the Wilson-Hilferty approximation ChiSquareTest uses. For
// statistics summed over independent tables, whose degrees of freedom
// ChiSquareTest's one-table count would overstate.
double ChiSquareUpperTail(double statistic, double df);

// Tests uniformity of 32-bit samples over `num_bins` equal bins.
ChiSquareResult ChiSquareUniform32(std::span<const uint32_t> samples,
                                   size_t num_bins);

// Pearson correlation between two equal-length sequences, mapped to [0,1)
// from 32-bit samples. Near zero for independent streams.
double PearsonCorrelation32(std::span<const uint32_t> a,
                            std::span<const uint32_t> b);

// Lag-1 serial correlation of one sequence.
double SerialCorrelation32(std::span<const uint32_t> samples);

// Standard normal upper-tail probability.
double StdNormalUpperTail(double z);

}  // namespace lightrw::rng

#endif  // LIGHTRW_RNG_STAT_TESTS_H_
