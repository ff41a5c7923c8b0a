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

namespace lightrw::core {

using apps::WalkApp;
using apps::WalkState;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

// Reusable per-engine sampling unit. Not thread-safe.
//
// Dynamic weights are evaluated one chunk of whole k-lane batches at a
// time (WalkApp::DynamicWeights), then offered to the WRS lanes batch by
// batch at the same stream offsets as one batch at a time would: the
// draws and the selection do not depend on the chunk size. The chunk is
// a constant, not the degree, so a sampler's buffer stays small however
// large the graph's hubs are (ClusterSim holds one per walker slot).
class StepSampler {
 public:
  // Lane j of the PWRS draws from rng stream j; `rng` must expose at least
  // `parallelism` streams and outlive this object.
  StepSampler(size_t parallelism, rng::ThunderingRng* rng);

  // Samples the next vertex of the walk in `state`. Returns
  // graph::kInvalidVertex if the current vertex has no sampleable neighbor
  // (zero degree or all dynamic weights zero).
  VertexId SampleNext(const CsrGraph& graph, const WalkApp& app,
                      const WalkState& state);

  size_t parallelism() const { return pwrs_.parallelism(); }

 private:
  sampling::ParallelWrsSampler pwrs_;
  std::vector<Weight> chunk_;  // whole k-lane batches, about 256 edges
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_STEP_SAMPLER_H_
