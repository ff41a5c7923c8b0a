// Reproduces paper Table 3: power consumption and power efficiency
// improvement of LightRW over the CPU baseline.
//
// Power cannot be measured without the board, so the watt figures come
// from the calibrated PowerModel (ranges taken from the paper's xbutil /
// CPU Energy Meter measurements); run times are measured (CPU) and
// simulated (LightRW). Efficiency improvement = (cpu_time * cpu_watts) /
// (lightrw_time * lightrw_watts).
//
// Paper result: FPGA 39-45 W vs CPU 103-126 W; efficiency improvement
// 15.05x-26.42x (MetaPath) and 16.28x-24.10x (Node2Vec).

#include <algorithm>
#include <cstdio>

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/platform_models.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Table 3: power efficiency improvement "
      "(paper: MetaPath 15.05-26.42x, Node2Vec 16.28-24.10x)",
      {{"dataset", "dataset", 10},
       {"app", "app", 10},
       {"fpga_watts", "LightRW W", 14, Num(1)},
       {"cpu_watts", "CPU W", 14, Num(1)},
       {"efficiency_improvement", "efficiency", 16, Num(2, "x")}});
  // Per app (MetaPath, Node2Vec): the lowest and highest improvement.
  double lo[2] = {1e30, 1e30}, hi[2] = {0.0, 0.0};
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const auto queries =
          StandardQueries(g, node2vec ? kNode2VecLength : kMetaPathLength);
      const core::AcceleratorConfig accel_config = DefaultAccelConfig();

      baseline::BaselineEngine cpu(&g, app.get(), baseline::BaselineConfig{});
      const double cpu_seconds = cpu.Run(queries).seconds;
      core::CycleEngine accel(&g, app.get(), accel_config);
      const double accel_seconds = accel.Run(queries).seconds;

      // Watts are modeled at the paper's full dataset sizes.
      const uint64_t paper_edges = graph::GetDatasetInfo(dataset).num_edges;
      core::PowerModel power;
      const double fpga_watts = power.FpgaWatts(accel_config.num_instances,
                                                paper_edges, node2vec);
      const double cpu_watts = power.CpuWatts(paper_edges, node2vec);
      const double improvement =
          (cpu_seconds * cpu_watts) / (accel_seconds * fpga_watts);
      table.Add({graph::GetDatasetInfo(dataset).name, app->name(),
                 fpga_watts, cpu_watts, improvement});
      lo[node2vec] = std::min(lo[node2vec], improvement);
      hi[node2vec] = std::max(hi[node2vec], improvement);
    }
  }
  char note[96];
  std::snprintf(note, sizeof(note),
                "MetaPath efficiency range: %.2fx ~ %.2fx", lo[0], hi[0]);
  table.AddNote(note);
  std::snprintf(note, sizeof(note),
                "Node2Vec efficiency range: %.2fx ~ %.2fx", lo[1], hi[1]);
  table.AddNote(note);
  return Report("table3_power", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
