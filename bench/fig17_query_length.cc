// Reproduces paper Fig. 17: throughput of LightRW and the CPU baseline on
// liveJournal as the query length varies from 10 to 80.
//
// Paper result: both systems deliver essentially constant throughput
// across lengths, with LightRW ~10x ahead on MetaPath and ~8.3-9.3x on
// Node2Vec.

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Fig. 17: throughput vs query length on LJ "
      "(paper: flat for both systems; ~10x MetaPath, ~9x Node2Vec)",
      {{"app", "app", 10},
       {"length", "length", 10},
       {"cpu_msteps_per_s", "cpu Mstep/s", 16},
       {"lightrw_msteps_per_s", "LightRW Mstep/s", 18},
       {"speedup", "speedup", 10, Num(2, "x")}});
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  // MetaPath relation paths are generated at the requested length, so the
  // sweep applies to both apps (the paper sweeps 10..80 for both).
  for (const bool node2vec : {false, true}) {
    for (uint32_t length = 10; length <= 80; length += 10) {
      std::unique_ptr<apps::WalkApp> app;
      if (node2vec) {
        app = MakeNode2Vec();
      } else {
        // The relation path must cover the full requested length or
        // MetaPath walks would die at the path's end.
        app = std::make_unique<apps::MetaPathApp>(
            apps::MakeRandomRelationPath(g, length, kBenchSeed));
      }
      const auto queries = StandardQueries(g, length);
      baseline::BaselineEngine cpu(&g, app.get(), baseline::BaselineConfig{});
      const double cpu_steps_s = cpu.Run(queries).StepsPerSecond();
      core::CycleEngine accel(&g, app.get(), DefaultAccelConfig());
      const double accel_steps_s = accel.Run(queries).StepsPerSecond();
      table.Add({node2vec ? "Node2Vec" : "MetaPath", uint64_t{length},
                 cpu_steps_s / 1e6, accel_steps_s / 1e6,
                 accel_steps_s / cpu_steps_s});
    }
  }
  return Report("fig17_query_length", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
