// Alias-method sampler (Walker/Vose). O(n) initialization, O(1) generation.
// Included as the second table-based baseline discussed in the paper
// (§2.2, "alias sampling").

#ifndef LIGHTRW_SAMPLING_ALIAS_H_
#define LIGHTRW_SAMPLING_ALIAS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sampling/sampler.h"

namespace lightrw::sampling {

// Vose's stack-based construction over `weights`, written into `prob`
// and `alias` (each weights.size() long): prob[i] is the 32-bit
// fixed-point probability of staying in bucket i (vs. deferring to
// alias[i]). All-zero weights leave every bucket a self-alias with
// probability 0. Returns the total weight. AliasTable and the static
// walk index's flattened per-vertex tables both build through it.
uint64_t BuildAliasTable(std::span<const Weight> weights,
                         std::span<uint32_t> prob, std::span<uint32_t> alias);

// Reusable alias table over integer weights.
class AliasTable {
 public:
  // Initialization stage: builds probability/alias arrays with
  // BuildAliasTable.
  void Build(std::span<const Weight> weights);

  // Generation stage: draws an index from two uniform random values
  // (bucket choice and coin). Returns kNoSample if total weight is zero.
  size_t Sample(uint64_t random_bucket, uint32_t random_coin) const;

  size_t size() const { return prob_.size(); }
  uint64_t total_weight() const { return total_weight_; }

  // Bytes of the alias table (Table 1 intermediate-traffic accounting).
  uint64_t table_bytes() const {
    return prob_.size() * (sizeof(uint32_t) + sizeof(uint32_t));
  }

 private:
  std::vector<uint32_t> prob_;
  std::vector<uint32_t> alias_;
  uint64_t total_weight_ = 0;
};

}  // namespace lightrw::sampling

#endif  // LIGHTRW_SAMPLING_ALIAS_H_
