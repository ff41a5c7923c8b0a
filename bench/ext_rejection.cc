// Extension experiment: KnightKing-style rejection sampling as a stronger
// CPU Node2Vec baseline. A candidate is drawn from the precomputed static
// distribution and accepted with probability scale/s_max, replacing the
// full per-step weight pass with O(1) expected work. Compares steps/s
// against the ThunderRW-style ITS engine and the simulated LightRW.

#include "baseline/engine.h"
#include "baseline/rejection.h"
#include "bench_util.h"
#include "common/timer.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Extension: Node2Vec via rejection sampling (KnightKing-style) vs "
      "per-step ITS vs simulated LightRW",
      {{"dataset", "dataset", 10},
       {"its_msteps_per_s", "ITS Mst/s", 14},
       {"rejection_msteps_per_s", "rejection Mst/s", 18},
       {"lightrw_msteps_per_s", "LightRW Mst/s", 16},
       {"trials_per_sample", "trials/spl", 14}});
  const auto app = MakeNode2Vec();
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    const graph::CsrGraph& g = StandIn(dataset);
    const auto queries = StandardQueries(g, kNode2VecLength);

    baseline::BaselineEngine its(&g, app.get(), baseline::BaselineConfig{});
    const double its_msteps = its.Run(queries).StepsPerSecond() / 1e6;

    baseline::Node2VecRejectionWalker walker(&g, kNode2VecP, kNode2VecQ,
                                             kBenchSeed);
    WallTimer timer;
    uint64_t steps = 0;
    for (const auto& q : queries) {
      graph::VertexId curr = q.start;
      graph::VertexId prev = graph::kInvalidVertex;
      for (uint32_t s = 0; s < q.length; ++s) {
        const graph::VertexId next = walker.SampleNext(curr, prev);
        if (next == graph::kInvalidVertex) {
          break;
        }
        prev = curr;
        curr = next;
        ++steps;
      }
    }
    const double rejection_msteps =
        static_cast<double>(steps) / timer.ElapsedSeconds() / 1e6;

    core::CycleEngine accel(&g, app.get(), DefaultAccelConfig());
    table.Add({graph::GetDatasetInfo(dataset).name, its_msteps,
               rejection_msteps, accel.Run(queries).StepsPerSecond() / 1e6,
               walker.TrialsPerSample()});
  }
  return Report("ext_rejection", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
