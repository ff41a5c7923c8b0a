#include "lightrw/step_sampler.h"

#include <algorithm>

#include "sampling/sampler.h"

namespace lightrw::core {
namespace {

// Edges per DynamicWeights call, rounded down to whole batches: enough to
// amortise Node2Vec's one search into N(prev), small enough to stay in L1.
constexpr size_t kChunkEdges = 256;

}  // namespace

StepSampler::StepSampler(size_t parallelism, rng::ThunderingRng* rng)
    : pwrs_(parallelism, rng),
      chunk_(std::max<size_t>(1, kChunkEdges / parallelism) * parallelism) {}

VertexId StepSampler::SampleNext(const CsrGraph& graph, const WalkApp& app,
                                 const WalkState& state) {
  const uint32_t degree = graph.Degree(state.curr);
  if (degree == 0) {
    return graph::kInvalidVertex;
  }
  const auto neighbors = graph.Neighbors(state.curr);
  // Identity weight function: the WRS lanes consume the CSR weight array
  // directly — same weights, same draws, same selection as evaluating
  // them, minus the virtual call and the copy.
  const bool static_weights = app.has_static_weights();
  const uint32_t k = static_cast<uint32_t>(pwrs_.parallelism());
  const uint32_t chunk = static_cast<uint32_t>(chunk_.size());

  pwrs_.Reset();
  for (uint32_t first = 0; first < degree; first += chunk) {
    const uint32_t n = std::min(chunk, degree - first);
    std::span<const Weight> weights;
    if (static_weights) {
      weights = graph.NeighborWeights(state.curr).subspan(first, n);
    } else {
      app.DynamicWeights(graph, state, first, {chunk_.data(), n});
      weights = {chunk_.data(), n};
    }
    for (uint32_t offset = 0; offset < n; offset += k) {
      pwrs_.OfferBatch(weights.subspan(offset, std::min(k, n - offset)),
                       first + offset);
    }
  }
  const size_t picked = pwrs_.selected();
  return picked == sampling::kNoSample ? graph::kInvalidVertex
                                       : neighbors[picked];
}

}  // namespace lightrw::core
