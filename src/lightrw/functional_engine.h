// Functional (untimed) LightRW engine.
//
// Executes Algorithm 3.1 exactly — per step, stream all neighbors through
// the weight updater and the k-lane parallel WRS sampler — but without the
// timing model, so it runs fast and deterministically. Its walks come
// from the path pass (ticket_walk.h): query i is ticket i, so it writes
// the corpus DistributedEngine and a low-load WalkService write for the
// same seed and queries. Used for sampling-correctness tests, the
// examples, the link-prediction case study and the chaos campaign's
// path-identity reference. CycleEngine samples the same laws from streams
// of its own.

#ifndef LIGHTRW_LIGHTRW_FUNCTIONAL_ENGINE_H_
#define LIGHTRW_LIGHTRW_FUNCTIONAL_ENGINE_H_

#include <cstdint>
#include <span>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "graph/csr.h"
#include "lightrw/config.h"

namespace lightrw::core {

using apps::WalkQuery;
using baseline::WalkOutput;

struct FunctionalRunStats {
  uint64_t queries = 0;
  uint64_t steps = 0;
  uint64_t edges_examined = 0;
};

// Deterministic walk generator with LightRW's sampling semantics.
class FunctionalEngine {
 public:
  // `graph` and `app` must outlive the engine. Only sampler_parallelism,
  // seed and num_threads of the config are used: the pass runs on
  // num_threads workers, and its output is the same at every count.
  FunctionalEngine(const graph::CsrGraph* graph, const apps::WalkApp* app,
                   const AcceleratorConfig& config);

  // Runs all queries, appending their paths to `output` in query order if
  // non-null. `edges_examined` sums the degree of every vertex a step was
  // tried from.
  FunctionalRunStats Run(std::span<const WalkQuery> queries,
                         WalkOutput* output = nullptr);

 private:
  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  AcceleratorConfig config_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_FUNCTIONAL_ENGINE_H_
