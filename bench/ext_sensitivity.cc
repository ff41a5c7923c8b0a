// Extension experiment: design-space sensitivity of the modeled
// accelerator, covering the ablations DESIGN.md calls out —
//   (a) WRS sampler lanes k (diminishing returns past the line rate),
//   (b) degree-aware cache depth,
//   (c) Node2Vec previous-adjacency buffer capacity,
//   (d) number of instances / DRAM channels.

#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

core::AcceleratorConfig BaseConfig() {
  core::AcceleratorConfig config = DefaultAccelConfig();
  config.num_instances = 1;
  return config;
}

core::AccelRunStats Run(const graph::CsrGraph& g, const apps::WalkApp& app,
                        uint32_t length,
                        const core::AcceleratorConfig& config) {
  core::CycleEngine engine(&g, &app, config);
  return engine.Run(StandardQueries(g, length));
}

int Main() {
  // `extra` is sweep-specific: the miss ratio for cache_entries, the
  // previous-adjacency refetch count for prev_buffer_edges, else 0.
  Table table(
      "Extension: accelerator design-space sensitivity "
      "(lanes k, cache depth, Node2Vec buffer, instances)",
      {{"sweep", "sweep", 20},
       {"value", "value", 12},
       {"msteps_per_s", "Msteps/s", 12},
       {"extra", "extra", 16, Num(3)}});
  const graph::CsrGraph& orkut = StandIn(graph::Dataset::kOrkut);
  const graph::CsrGraph& lj = StandIn(graph::Dataset::kLiveJournal);
  const auto orkut_metapath = MakeMetaPath(orkut);
  const auto lj_metapath = MakeMetaPath(lj);
  const auto node2vec = MakeNode2Vec();

  for (const uint32_t k : {1, 2, 4, 8, 16, 32}) {
    core::AcceleratorConfig config = BaseConfig();
    config.sampler_parallelism = k;
    const auto stats = Run(orkut, *orkut_metapath, kMetaPathLength, config);
    table.Add({"sampler_lanes", uint64_t{k}, stats.StepsPerSecond() / 1e6,
               0.0});
  }
  for (const uint32_t entries : {8, 32, 128, 512, 2048}) {
    core::AcceleratorConfig config = BaseConfig();
    config.cache_entries = entries;
    const auto stats = Run(lj, *lj_metapath, kMetaPathLength, config);
    table.Add({"cache_entries", uint64_t{entries},
               stats.StepsPerSecond() / 1e6, stats.cache.MissRatio()});
  }
  for (const uint32_t edges : {16, 64, 256, 1024, 65536}) {
    core::AcceleratorConfig config = BaseConfig();
    config.prev_neighbor_buffer_edges = edges;
    const auto stats = Run(orkut, *node2vec, /*length=*/20, config);
    table.Add({"prev_buffer_edges", uint64_t{edges},
               stats.StepsPerSecond() / 1e6,
               static_cast<double>(stats.prev_refetches)});
  }
  for (const uint32_t instances : {1, 2, 4, 8}) {
    core::AcceleratorConfig config = BaseConfig();
    config.num_instances = instances;
    const auto stats = Run(lj, *lj_metapath, kMetaPathLength, config);
    table.Add({"instances", uint64_t{instances},
               stats.StepsPerSecond() / 1e6, 0.0});
  }
  return Report("ext_sensitivity", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
