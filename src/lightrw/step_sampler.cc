#include "lightrw/step_sampler.h"

#include <algorithm>

#include "sampling/sampler.h"

namespace lightrw::core {
namespace {

// Edges per DynamicWeights call, rounded down to whole batches: enough to
// amortise Node2Vec's one search into N(prev), small enough to stay in L1.
constexpr size_t kChunkEdges = 256;

// Cache lines of each adjacency array Prefetch requests: enough to cover
// the short lists most steps read in full, few enough not to evict what
// other walkers' events are about to read.
constexpr size_t kPrefetchLines = 2;
constexpr size_t kLineBytes = 64;

template <typename T>
void PrefetchHead(std::span<const T> items) {
  const char* const head = reinterpret_cast<const char*>(items.data());
  const size_t bytes = items.size_bytes();
  for (size_t at = 0; at < kPrefetchLines * kLineBytes && at < bytes;
       at += kLineBytes) {
    __builtin_prefetch(head + at);
  }
}

}  // namespace

StepSampler::StepSampler(size_t parallelism, rng::ThunderingRng* rng)
    : pwrs_(parallelism, rng),
      chunk_(std::max<size_t>(1, kChunkEdges / parallelism) * parallelism) {}

void StepSampler::Prefetch(const CsrGraph& graph, const WalkApp& app,
                           VertexId curr) {
  PrefetchHead(graph.NeighborWeights(curr));
  if (!app.has_static_weights()) {
    PrefetchHead(graph.Neighbors(curr));
  }
}

size_t StepSampler::SampleIndex(const CsrGraph& graph, const WalkApp& app,
                                const WalkState& state) {
  const uint32_t degree = graph.Degree(state.curr);
  if (degree == 0) {
    return sampling::kNoSample;
  }
  pwrs_.Reset();
  if (app.has_static_weights()) {
    // Identity weight function: the WRS lanes consume the CSR weight
    // array directly — same weights, same draws, same selection as
    // evaluating them, minus the virtual call and the copy.
    pwrs_.OfferBatches(graph.NeighborWeights(state.curr), 0);
  } else {
    const uint32_t chunk = static_cast<uint32_t>(chunk_.size());
    for (uint32_t first = 0; first < degree; first += chunk) {
      const std::span<Weight> weights(chunk_.data(),
                                      std::min(chunk, degree - first));
      app.DynamicWeights(graph, state, first, weights);
      pwrs_.OfferBatches(weights, first);
    }
  }
  return pwrs_.selected();
}

}  // namespace lightrw::core
