#include "lightrw/functional_engine.h"

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "lightrw/ticket_walk.h"

namespace lightrw::core {

FunctionalEngine::FunctionalEngine(const graph::CsrGraph* graph,
                                   const apps::WalkApp* app,
                                   const AcceleratorConfig& config)
    : graph_(graph), app_(app), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(config.sampler_parallelism >= 1);
}

FunctionalRunStats FunctionalEngine::Run(std::span<const WalkQuery> queries,
                                         WalkOutput* output) {
  FunctionalRunStats stats;
  PathWindow paths(graph_, app_, config_.sampler_parallelism, config_.seed,
                   queries, /*first=*/0, /*stride=*/1,
                   SimThreadPool::ResolveThreads(config_.num_threads));
  for (size_t q = 0; q < paths.size(); ++q) {
    const TicketPath& path = paths.Path(q);
    const std::vector<graph::VertexId>& vertices = path.vertices;
    const size_t steps = vertices.size() - 1;
    // A step was tried from every vertex the walk left, and from its last
    // one when it ended short of its length without a stop coin.
    const size_t tried =
        steps < path.query.length && !path.stopped ? steps + 1 : steps;
    for (size_t i = 0; i < tried; ++i) {
      stats.edges_examined += graph_->Degree(vertices[i]);
    }
    stats.steps += steps;
    ++stats.queries;
    if (output != nullptr) {
      output->vertices.insert(output->vertices.end(), vertices.begin(),
                              vertices.end());
      output->offsets.push_back(
          static_cast<uint32_t>(output->vertices.size()));
    }
  }
  return stats;
}

}  // namespace lightrw::core
