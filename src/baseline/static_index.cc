#include "baseline/static_index.h"

#include <span>

#include "common/check.h"
#include "sampling/alias.h"
#include "sampling/sampler.h"

namespace lightrw::baseline {

StaticWalkIndex::StaticWalkIndex(const graph::CsrGraph& graph)
    : prob_(graph.num_edges()), alias_(graph.num_edges()) {
  const graph::VertexId n = graph.num_vertices();
  offsets_.reserve(n + 1);
  offsets_.push_back(0);
  for (graph::VertexId v = 0; v < n; ++v) {
    const auto weights = graph.NeighborWeights(v);
    const uint64_t base = offsets_.back();
    sampling::BuildAliasTable(
        weights, std::span(prob_).subspan(base, weights.size()),
        std::span(alias_).subspan(base, weights.size()));
    offsets_.push_back(base + weights.size());
  }
}

size_t StaticWalkIndex::Sample(graph::VertexId v, uint64_t random_bucket,
                               uint32_t random_coin) const {
  LIGHTRW_DCHECK(v < num_vertices());
  const uint64_t begin = offsets_[v];
  const uint64_t size = offsets_[v + 1] - begin;
  if (size == 0) {
    return sampling::kNoSample;
  }
  const uint64_t bucket = begin + random_bucket % size;
  if (prob_[bucket] == 0 && alias_[bucket] == bucket - begin) {
    return sampling::kNoSample;  // all-zero weights for this vertex
  }
  // Strict comparison: zero-probability slots (zero-weight edges paired
  // with a heavy alias) always defer to their alias.
  return random_coin < prob_[bucket] ? bucket - begin : alias_[bucket];
}

uint64_t StaticWalkIndex::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         prob_.size() * sizeof(uint32_t) + alias_.size() * sizeof(uint32_t);
}

}  // namespace lightrw::baseline
