// Reproduces paper Fig. 12: throughput of dynamic burst strategies
// b1+b{2..64} relative to the b1+b0 baseline (all single-beat bursts) for
// MetaPath on RMAT graphs and on the real-graph stand-ins.
//
// Paper result: b1+b32 is the best overall (up to 4.24x on synthetic
// graphs, up to 3.26x on real graphs); b1+b2 can be the worst because tiny
// long bursts do not amortize the burst plan overhead.

#include "bench_util.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

constexpr uint32_t kLongBeats[] = {0, 2, 4, 8, 16, 32, 64};

uint64_t RunCycles(const graph::CsrGraph& g, uint32_t long_beats) {
  const auto app = MakeMetaPath(g);
  core::AcceleratorConfig config = DefaultAccelConfig();
  config.num_instances = 1;
  config.burst = core::BurstStrategy{1, long_beats};
  core::CycleEngine engine(&g, app.get(), config);
  const auto queries = StandardQueries(g, kMetaPathLength);
  return engine.Run(queries).cycles;
}

// One row: each strategy's speedup over b1+b0 on `g`.
std::vector<obs::Json> SpeedupRow(const std::string& name,
                                  const graph::CsrGraph& g) {
  std::vector<obs::Json> cells = {name};
  const uint64_t base = RunCycles(g, 0);
  for (const uint32_t beats : kLongBeats) {
    const uint64_t cycles = beats == 0 ? base : RunCycles(g, beats);
    cells.push_back(static_cast<double>(base) / cycles);
  }
  return cells;
}

int Main() {
  std::vector<Column> columns = {{"graph", "graph", 12}};
  for (const uint32_t beats : kLongBeats) {
    const std::string name = "b1+b" + std::to_string(beats);
    columns.push_back({name, name, 9});
  }
  Table table(
      "Fig. 12: dynamic burst strategy speedup over b1+b0 on MetaPath "
      "(paper: b1+b32 best, up to 4.24x synthetic / 3.26x real)",
      std::move(columns));
  // Synthetic RMAT graphs (paper uses rmat-18..22; scaled down here).
  for (const uint32_t scale : {12u, 14u, 16u, 18u}) {
    graph::RmatOptions options;
    options.scale = scale;
    options.edge_factor = 8;
    options.seed = kBenchSeed;
    table.Add(SpeedupRow("rmat-" + std::to_string(scale),
                         GenerateRmat(options)));
  }
  for (const graph::Dataset d : graph::kAllDatasets) {
    table.Add(SpeedupRow(graph::GetDatasetInfo(d).name, StandIn(d)));
  }
  return Report("fig12_burst_strategy", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
