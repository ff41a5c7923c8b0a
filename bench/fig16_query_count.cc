// Reproduces paper Fig. 16: throughput of LightRW and the CPU baseline on
// liveJournal as the number of queries grows (paper: 2^10..2^22).
//
// Paper result: LightRW's throughput is essentially flat (up to 4.8e7
// steps/s MetaPath, 3.5e7 Node2Vec at full scale); the CPU baseline
// needs many queries to amortize its setup, so the speedup is largest at
// small query counts (up to 75x at 2^10).

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Fig. 16: throughput vs number of queries on LJ "
      "(paper: LightRW flat; speedup largest at small query counts)",
      {{"app", "app", 10},
       {"queries", "queries", 12},
       {"cpu_msteps_per_s", "cpu Mstep/s", 16},
       {"lightrw_msteps_per_s", "LightRW Mstep/s", 18},
       {"speedup", "speedup", 10, Num(2, "x")}});
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  for (const bool node2vec : {false, true}) {
    const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
    const uint32_t length = node2vec ? kNode2VecLength : kMetaPathLength;
    for (size_t count = 1 << 10; count <= (1 << 16); count <<= 2) {
      const auto queries = RepeatedQueries(g, length, count);
      baseline::BaselineEngine cpu(&g, app.get(), baseline::BaselineConfig{});
      const double cpu_steps_s = cpu.Run(queries).StepsPerSecond();
      core::CycleEngine accel(&g, app.get(), DefaultAccelConfig());
      const double accel_steps_s = accel.Run(queries).StepsPerSecond();
      table.Add({app->name(), count, cpu_steps_s / 1e6, accel_steps_s / 1e6,
                 accel_steps_s / cpu_steps_s});
    }
  }
  return Report("fig16_query_count", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
