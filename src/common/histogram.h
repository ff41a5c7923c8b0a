// Sample accumulator with exact quantiles, used for the latency
// distribution study (paper Fig. 15) and test assertions.

#ifndef LIGHTRW_COMMON_HISTOGRAM_H_
#define LIGHTRW_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lightrw {

// Collects double-valued samples and reports order statistics. Quantiles
// are exact (computed over the stored samples), which is fine at the scales
// used here (tens of thousands of per-query latencies).
//
// Edge cases are defined, not UB: every statistic of an empty accumulator
// is 0.0 (callers that must distinguish "no data" check count() first),
// and a single-sample accumulator reports Min == Max == Mean ==
// Quantile(q) == the sample.
class SampleStats {
 public:
  void Add(double value);
  void Reserve(size_t n) { samples_.reserve(n); }

  // Appends all of `other`'s samples (used to combine per-worker stats).
  void Merge(const SampleStats& other);

  size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }
  double Mean() const;
  double Min() const;
  double Max() const;
  // q in [0, 1] (checked). Hyndman & Fan type 7 (the R/NumPy default):
  // with n sorted samples x[0..n-1], the quantile sits at fractional
  // rank h = q*(n-1); the result is x[floor(h)] linearly interpolated
  // toward x[floor(h)+1] by h - floor(h). Exact-quantile boundaries are
  // pinned: when h lands within 1e-9 (relative) of an integer — e.g.
  // q = 0.99 over 101 samples, where floating-point can produce
  // h = 98.999...97 instead of 99 — the exact order statistic x[round(h)]
  // is returned rather than an interpolation against a neighbor. So
  // Quantile(0)/Quantile(1) are exactly Min/Max, and any q that maps to
  // an integral rank returns that stored sample bit-for-bit.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  // The stored samples, sorted ascending (sorts lazily on first call).
  const std::vector<double>& sorted_samples() const;

  // The stored samples in insertion order. Only meaningful before the
  // first order-statistic query, which may reorder them in place; used
  // to replay per-shard samples into shared sinks in a fixed order.
  const std::vector<double>& raw_samples() const { return samples_; }

 private:
  // Sorts samples_ if new samples arrived since the last query.
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

}  // namespace lightrw

#endif  // LIGHTRW_COMMON_HISTOGRAM_H_
