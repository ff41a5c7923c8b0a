#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lightrw {

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_ = false;
}

void SampleStats::Merge(const SampleStats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_ = false;
}

void SampleStats::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleStats::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  return samples_.front();
}

double SampleStats::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  return samples_.back();
}

double SampleStats::Quantile(double q) const {
  LIGHTRW_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  if (samples_.size() == 1) {
    return samples_.front();
  }
  // Hyndman & Fan type 7; see the header for the exact definition.
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const double nearest = std::round(rank);
  // Pin exact-quantile boundaries: an integral rank (up to floating-point
  // noise in q*(n-1)) returns the stored order statistic itself.
  if (std::abs(rank - nearest) <= 1e-9 * std::max(1.0, nearest)) {
    return samples_[static_cast<size_t>(nearest)];
  }
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

const std::vector<double>& SampleStats::sorted_samples() const {
  EnsureSorted();
  return samples_;
}

}  // namespace lightrw
