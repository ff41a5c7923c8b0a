#include "sampling/alias.h"

#include <algorithm>

#include "common/check.h"

namespace lightrw::sampling {

uint64_t BuildAliasTable(std::span<const Weight> weights,
                         std::span<uint32_t> prob, std::span<uint32_t> alias) {
  const size_t n = weights.size();
  LIGHTRW_CHECK(prob.size() == n && alias.size() == n);
  uint64_t total = 0;
  for (const Weight w : weights) {
    total += w;
  }
  if (total == 0) {
    for (size_t i = 0; i < n; ++i) {
      prob[i] = 0;
      alias[i] = static_cast<uint32_t>(i);
    }
    return 0;
  }

  // Vose's algorithm on scaled probabilities p_i = n * w_i / W.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = static_cast<double>(weights[i]) * n /
                static_cast<double>(total);
  }
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob[s] = static_cast<uint32_t>(
        std::min(4294967295.0, scaled[s] * 4294967296.0));
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (const uint32_t i : large) {
    prob[i] = UINT32_MAX;  // always stay
    alias[i] = i;
  }
  for (const uint32_t i : small) {
    // Only reachable through floating-point round-off; treat as full.
    prob[i] = UINT32_MAX;
    alias[i] = i;
  }
  return total;
}

void AliasTable::Build(std::span<const Weight> weights) {
  prob_.resize(weights.size());
  alias_.resize(weights.size());
  total_weight_ = BuildAliasTable(weights, prob_, alias_);
}

size_t AliasTable::Sample(uint64_t random_bucket, uint32_t random_coin) const {
  if (total_weight_ == 0 || prob_.empty()) {
    return kNoSample;
  }
  const size_t bucket = static_cast<size_t>(random_bucket % prob_.size());
  // Strict comparison so zero-probability buckets (zero-weight items)
  // always defer to their alias.
  return random_coin < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace lightrw::sampling
