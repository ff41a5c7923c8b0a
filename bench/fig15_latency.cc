// Reproduces paper Fig. 15: per-query latency distribution (quartile
// boxes) of LightRW vs the CPU baseline for 8192 randomly selected
// queries.
//
// Paper result: LightRW's latency is much lower and far more consistent
// (deterministic hardware pipeline vs. CPU scheduling noise).

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

std::vector<obs::Json> QuartileRow(const std::string& dataset,
                                   const std::string& app,
                                   const char* system,
                                   const SampleStats& stats, double to_us) {
  return {dataset, app, system, stats.Min() * to_us,
          stats.Quantile(0.25) * to_us, stats.Median() * to_us,
          stats.Quantile(0.75) * to_us, stats.Max() * to_us};
}

int Main() {
  Table table(
      "Fig. 15: per-query latency quartiles in microseconds "
      "(paper: LightRW lower and tighter than ThunderRW)",
      {{"dataset", "dataset", 10},
       {"app", "app", 10},
       {"system", "system", 12},
       {"min_us", "min", 10, Num(1)},
       {"q1_us", "q1", 10, Num(1)},
       {"median_us", "median", 10, Num(1)},
       {"q3_us", "q3", 10, Num(1)},
       {"max_us", "max", 12, Num(1)}});
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const uint32_t length = node2vec ? kNode2VecLength : kMetaPathLength;
      const auto queries = StandardQueries(g, length, /*cap=*/8192);

      baseline::BaselineConfig cpu_config;
      cpu_config.collect_latency = true;
      baseline::BaselineEngine cpu(&g, app.get(), cpu_config);
      const auto cpu_stats = cpu.Run(queries);

      core::AcceleratorConfig accel_config = DefaultAccelConfig();
      accel_config.collect_latency = true;
      core::CycleEngine accel(&g, app.get(), accel_config);
      const auto accel_stats = accel.Run(queries);

      const std::string name = graph::GetDatasetInfo(dataset).name;
      table.Add(QuartileRow(name, app->name(), "ThunderRW",
                            cpu_stats.query_latency_seconds, 1e6));
      // Accelerator latencies are recorded in kernel cycles at 300 MHz.
      table.Add(QuartileRow(name, app->name(), "LightRW",
                            accel_stats.query_latency_cycles, 1e6 / 300e6));
    }
  }
  return Report("fig15_latency", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
