// One-step sampling shared by the LightRW engines: streams the current
// vertex's neighbors through the application weight updater into the
// k-lane parallel WRS sampler, exactly as the hardware pipeline does
// (Weight Updater -> WRS Sampler, k items per cycle).

#ifndef LIGHTRW_LIGHTRW_STEP_SAMPLER_H_
#define LIGHTRW_LIGHTRW_STEP_SAMPLER_H_

#include <cstddef>
#include <vector>

#include "apps/walk_app.h"
#include "graph/csr.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"
#include "sampling/sampler.h"

namespace lightrw::core {

using apps::WalkApp;
using apps::WalkState;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

// Reusable per-engine sampling unit. Not thread-safe.
//
// Static weights go to the WRS lanes in one call, straight from the CSR.
// Dynamic weights are evaluated one chunk of whole k-lane batches at a
// time (WalkApp::DynamicWeights), and each chunk is offered in one call
// at the same stream offsets as one batch at a time would: the draws and
// the selection do not depend on the chunk size. The chunk is a
// constant, not the degree, so a sampler's buffer stays small however
// large the graph's hubs are (ClusterSim holds one per walker slot).
class StepSampler {
 public:
  // Lane j of the PWRS draws from rng stream j; `rng` must expose at least
  // `parallelism` streams and outlive this object.
  StepSampler(size_t parallelism, rng::ThunderingRng* rng);

  // The index in N(state.curr) of the next vertex of the walk in
  // `state`, or sampling::kNoSample if the current vertex has no
  // sampleable neighbor (zero degree or all dynamic weights zero). A
  // caller that interleaves walks prefetches that neighbor's line before
  // it reads it.
  size_t SampleIndex(const CsrGraph& graph, const WalkApp& app,
                     const WalkState& state);

  // SampleIndex plus the read of the sampled neighbor: the next vertex,
  // or graph::kInvalidVertex where SampleIndex gives kNoSample. Inline,
  // so a caller makes one call per step.
  VertexId SampleNext(const CsrGraph& graph, const WalkApp& app,
                      const WalkState& state) {
    const size_t picked = SampleIndex(graph, app, state);
    return picked == sampling::kNoSample ? graph::kInvalidVertex
                                         : graph.Neighbors(state.curr)[picked];
  }

  // Asks the CPU to start loading the first lines SampleNext reads for a
  // walk at `curr`: N(curr)'s weights, plus N(curr) itself when `app`
  // evaluates dynamic weights. An event loop calls this when it queues a
  // walker's fetch, so the lines arrive while other walkers' events run.
  // A hint only: results do not depend on it.
  static void Prefetch(const CsrGraph& graph, const WalkApp& app,
                       VertexId curr);

  size_t parallelism() const { return pwrs_.parallelism(); }

 private:
  sampling::ParallelWrsSampler pwrs_;
  std::vector<Weight> chunk_;  // whole k-lane batches, about 256 edges
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_STEP_SAMPLER_H_
