#include "lightrw/uniform_engine.h"

#include "common/check.h"

namespace lightrw::core {

UniformCycleEngine::UniformCycleEngine(const graph::CsrGraph* graph,
                                       const AcceleratorConfig& config)
    : graph_(graph), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(config.num_instances >= 1);
}

AccelRunStats UniformCycleEngine::Run(
    std::span<const apps::WalkQuery> queries,
    baseline::WalkOutput* output) {
  // A first-order walk: no prev lookups and no stop coins. Its weights
  // are never read, since the single-record policy picks uniformly.
  const apps::StaticWalkApp walk;
  return RunAcceleratorInstances(*graph_, walk, config_,
                                 FetchPolicy::kUniformRecord, queries,
                                 output);
}

}  // namespace lightrw::core
