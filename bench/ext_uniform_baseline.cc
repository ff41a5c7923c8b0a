// Extension experiment (paper §7 related work): a Su et al. (FPL'21)-style
// uniform-sampling accelerator vs LightRW. Uniform static walks need only
// one neighbor fetch per step, so the specialized engine wins on that
// special case — but it cannot express weighted or dynamic walks at all,
// which is the generality LightRW trades some uniform-walk speed for.

#include "apps/walk_app.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/uniform_engine.h"

namespace lightrw::bench {
namespace {

double MSteps(const core::AccelRunStats& stats) {
  return stats.StepsPerSecond() / 1e6;
}

double BytesPerStep(const core::AccelRunStats& stats) {
  return static_cast<double>(stats.dram.bytes) / stats.steps;
}

obs::Json EngineJson(const core::AccelRunStats& stats) {
  obs::Json j = obs::Json::MakeObject();
  j.Set("cycles", stats.cycles);
  j.Set("steps", stats.steps);
  j.Set("dram_bytes", stats.dram.bytes);
  return j;
}

int Main() {
  Table table(
      "Extension: specialized uniform-walk accelerator (Su et al. style) "
      "vs LightRW on uniform static walks — the generality/speed tradeoff "
      "of paper §7",
      {{"dataset", "dataset", 10},
       {"", "uniform Mst/s", 16},
       {"", "LightRW Mst/s", 16},
       {"", "uni B/step", 14, Num(0)},
       {"", "lrw B/step", 14, Num(0)},
       {"uniform", ""},
       {"lightrw", ""}});
  apps::StaticWalkApp app;  // first-order walk; weights all >= 1
  const core::AcceleratorConfig config = DefaultAccelConfig();
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    const graph::CsrGraph& g = StandIn(dataset);
    const auto queries = StandardQueries(g, /*length=*/20);
    const auto uniform = core::UniformCycleEngine(&g, config).Run(queries);
    const auto lightrw = core::CycleEngine(&g, &app, config).Run(queries);
    table.Add({graph::GetDatasetInfo(dataset).name, MSteps(uniform),
               MSteps(lightrw), BytesPerStep(uniform), BytesPerStep(lightrw),
               EngineJson(uniform), EngineJson(lightrw)});
  }
  return Report("ext_uniform_baseline", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
