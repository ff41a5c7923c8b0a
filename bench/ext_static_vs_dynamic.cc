// Extension experiment: the static/dynamic gap that motivates the paper
// (§2.1). Static random walks can precompute per-edge transition
// probabilities offline (a per-vertex alias index) and then step in O(1);
// dynamic walks must recompute weights every step. This bench quantifies
// that gap on the CPU: a precomputed-index walker vs the per-step ITS
// engine on the same first-order workload, plus the index build cost.

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "baseline/static_index.h"
#include "bench_util.h"
#include "common/timer.h"
#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::bench {
namespace {

// O(1)-per-step walker over the precomputed index.
double RunStaticWalks(const graph::CsrGraph& g,
                      const baseline::StaticWalkIndex& index,
                      std::span<const apps::WalkQuery> queries) {
  rng::Xoshiro256StarStar gen(kBenchSeed);
  WallTimer timer;
  uint64_t steps = 0;
  for (const auto& q : queries) {
    graph::VertexId curr = q.start;
    for (uint32_t s = 0; s < q.length; ++s) {
      const size_t slot = index.Sample(curr, gen.Next(), gen.Next32());
      if (slot == sampling::kNoSample) {
        break;
      }
      curr = g.Neighbors(curr)[slot];
      ++steps;
    }
  }
  return static_cast<double>(steps) / timer.ElapsedSeconds();
}

int Main() {
  Table table(
      "Extension: static (precomputed index) vs dynamic per-step sampling "
      "on CPU — the gap that motivates accelerating GDRWs",
      {{"dataset", "dataset", 10},
       {"static_msteps_per_s", "static Mst/s", 16},
       {"dynamic_msteps_per_s", "dynamic Mst/s", 16},
       {"gap", "gap", 10, Num(2, "x")},
       {"index_build_s", "index build s", 14, Num(3)},
       {"index_mb", "index MB", 12}});
  const apps::StaticWalkApp app;
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    const graph::CsrGraph& g = StandIn(dataset);
    const auto queries = StandardQueries(g, /*length=*/20);

    WallTimer build_timer;
    baseline::StaticWalkIndex index(g);
    const double index_build_s = build_timer.ElapsedSeconds();
    const double static_msteps = RunStaticWalks(g, index, queries) / 1e6;

    baseline::BaselineEngine dynamic(&g, &app, baseline::BaselineConfig{});
    const double dynamic_msteps = dynamic.Run(queries).StepsPerSecond() / 1e6;
    table.Add({graph::GetDatasetInfo(dataset).name, static_msteps,
               dynamic_msteps, static_msteps / dynamic_msteps, index_build_s,
               uint64_t{index.MemoryBytes() >> 20}});
  }
  return Report("ext_static_vs_dynamic", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
