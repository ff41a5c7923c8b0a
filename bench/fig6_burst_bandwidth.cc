// Reproduces paper Fig. 6: DRAM channel bandwidth and the ratio of valid
// data as a function of (fixed) burst length, for MetaPath's access
// pattern on liveJournal.
//
// Paper result: bandwidth rises with burst length and peaks at 17.57 GB/s;
// the valid-data ratio is highest at burst length 1 and decays with longer
// fixed bursts because adjacency lists rarely fill a long burst.

#include "baseline/engine.h"
#include "bench_util.h"
#include "hwsim/dram.h"
#include "lightrw/burst_engine.h"
#include "lightrw/functional_engine.h"

namespace lightrw::bench {
namespace {

// Degrees of the vertices actually expanded by a MetaPath run on LJ — the
// request-size distribution the burst engine sees.
std::vector<uint32_t> VisitedDegrees() {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeMetaPath(g);
  core::FunctionalEngine engine(&g, app.get(), DefaultAccelConfig());
  const auto queries = StandardQueries(g, kMetaPathLength);
  baseline::WalkOutput output;
  engine.Run(queries, &output);
  std::vector<uint32_t> degrees;
  degrees.reserve(output.vertices.size());
  for (size_t p = 0; p < output.num_paths(); ++p) {
    const auto path = output.Path(p);
    // Every path vertex except the last is expanded (its adjacency is
    // streamed from DRAM).
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      degrees.push_back(g.Degree(path[i]));
    }
  }
  return degrees;
}

int Main() {
  Table table(
      "Fig. 6: bandwidth vs burst length and ratio of valid data "
      "(paper: peak 17.57 GB/s; valid ratio highest at burst length 1)",
      {{"burst_beats", "burst length", 14},
       {"bandwidth_gbs", "bandwidth GB/s", 18},
       {"valid_ratio", "valid ratio", 14}});
  const std::vector<uint32_t> degrees = VisitedDegrees();
  const hwsim::DramChannel channel{hwsim::DramConfig{}};
  for (const uint32_t beats : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    // Fixed burst length: every adjacency fetch is rounded up to whole
    // bursts of `beats` bus words.
    uint64_t requested = 0;
    uint64_t loaded = 0;
    const core::BurstStrategy fixed{beats, 0};
    for (const uint32_t degree : degrees) {
      const uint64_t bytes =
          static_cast<uint64_t>(degree) * graph::kBytesPerEdgeRecord;
      const core::BurstPlan plan =
          core::PlanBursts(bytes, fixed, channel.config().bus_bytes);
      requested += bytes;
      loaded += plan.loaded_bytes;
    }
    table.Add({uint64_t{beats}, channel.SteadyStateBandwidth(beats) / 1e9,
               loaded == 0 ? 1.0 : static_cast<double>(requested) / loaded});
  }
  return Report("fig6_burst_bandwidth", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
