// Extension experiment (paper §8 future work): distributed LightRW over
// multiple FPGA boards connected by 100G links. Sweeps the board count and
// partitioning strategy on the liveJournal stand-in, reporting throughput
// scaling and walker migration ratios for MetaPath.
//
// Expected shape: near-linear scaling while the network is not the
// bottleneck; greedy (structure-aware) partitioning migrates fewer
// walkers than oblivious hashing and scales further.

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"

namespace lightrw::bench {
namespace {

using distributed::PartitionStrategy;

int Main() {
  Table table(
      "Extension: distributed LightRW scaling (paper future work; "
      "expect near-linear scaling, greedy < hash migrations)",
      {{"strategy", "strategy", 10},
       {"boards", "boards", 8},
       {"msteps_per_s", "Msteps/s", 14},
       {"migration_ratio", "migrations", 14, Percent(1)},
       {"cut_ratio", "edge cut", 12, Percent(1)},
       {"steps", ""},
       {"cycles", ""},
       {"migrations", ""}});
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeMetaPath(g);
  const auto queries = StandardQueries(g, kMetaPathLength);
  // "replicated" keeps the whole graph on every board (hash placement only
  // picks each walker's launch board), so no edge is cut.
  const struct {
    const char* name;
    PartitionStrategy strategy;
    bool replicate;
  } kConfigs[] = {
      {"replicated", PartitionStrategy::kHash, true},
      {"hash", PartitionStrategy::kHash, false},
      {"greedy", PartitionStrategy::kGreedy, false},
  };
  for (const auto& c : kConfigs) {
    for (const distributed::BoardId boards : {1, 2, 4, 8}) {
      const distributed::Partition partition =
          distributed::MakePartition(g, boards, c.strategy);
      distributed::DistributedConfig config;
      config.board = DefaultAccelConfig();
      config.board.num_instances = 1;  // one accelerator channel per board
      config.replicate_graph = c.replicate;
      distributed::DistributedEngine engine(&g, app.get(), &partition,
                                            config);
      const auto stats = engine.Run(queries).value();
      table.Add({c.name, uint64_t{boards}, stats.StepsPerSecond() / 1e6,
                 stats.MigrationRatio(),
                 c.replicate ? 0.0 : partition.CutRatio(g), stats.steps,
                 stats.cycles, stats.migrations});
    }
  }
  return Report("ext_distributed", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
