// Extension experiment (reliability): fault tolerance of the distributed
// LightRW simulation. Sweeps the link fault rate and the walker-state
// checkpoint interval around a scheduled mid-run board failure, and
// reports the throughput overhead of the recovery machinery plus the
// exact fault/recovery event counts.
//
// Expected shape: overhead grows with the fault rate (retransmissions)
// and with the checkpoint interval (more steps replayed per recovery);
// interval 0 disables checkpoints, so the dead board's in-flight walks
// are lost — the quantified cost of running without checkpoints.

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"

namespace lightrw::bench {
namespace {

using distributed::DistributedConfig;
using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;

constexpr uint32_t kBoards = 4;

DistributedConfig BaseConfig() {
  DistributedConfig config;
  config.board = DefaultAccelConfig();
  config.board.num_instances = 1;  // one accelerator channel per board
  // Partitioned mode: walkers migrate between boards, so link faults
  // actually hit the wire and recovery re-dispatches to the vertex owner.
  config.replicate_graph = false;
  return config;
}

int Main() {
  Table table(
      "Extension: fault tolerance (link fault rate x checkpoint interval, "
      "board 1 killed mid-run; overhead vs fault-free baseline)",
      {{"link_rate", "link rate", 10, Num(3)},
       {"checkpoint_interval_cycles", "ckpt cycles", 12},
       {"msteps_per_s", "Msteps/s", 10},
       {"overhead_pct", "overhead", 10, Num(1, "%")},
       {"faults_injected", "faults", 8},
       {"retransmissions", "retrans", 10},
       {"checkpoints", "ckpts", 10},
       {"walkers_recovered", "recov", 8},
       {"walkers_lost", "lost", 6},
       {"replayed_steps", "replayed", 10}});
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeMetaPath(g);
  const auto queries = StandardQueries(g, kMetaPathLength);
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  // Fault-free makespan, used to place the board failure mid-run and to
  // express recovery overhead as a ratio.
  const uint64_t baseline_cycles =
      DistributedEngine(&g, app.get(), &partition, BaseConfig())
          .Run(queries)
          .value()
          .cycles;
  for (const double link_rate : {0.0, 0.001, 0.01, 0.05}) {
    for (const uint64_t interval : {0u, 1u << 12, 1u << 16, 1u << 20}) {
      DistributedConfig config = BaseConfig();
      config.board.faults.enabled = true;
      config.board.faults.seed = kBenchSeed;
      config.board.faults.link_drop_rate = link_rate / 2;
      config.board.faults.link_corrupt_rate = link_rate / 2;
      config.board.faults.board_deaths = {{baseline_cycles / 2, /*board=*/1}};
      config.board.faults.checkpoint_interval_cycles = interval;
      // The interval-0 rows measure the no-checkpoint loss mode on purpose.
      config.board.faults.allow_walker_loss = true;

      DistributedEngine engine(&g, app.get(), &partition, config);
      const auto result = engine.Run(queries);
      if (!result.ok()) {
        return RunFailed(result.status());
      }
      const auto& stats = *result;
      table.Add({link_rate, interval, stats.StepsPerSecond() / 1e6,
                 100.0 * (static_cast<double>(stats.cycles) /
                              static_cast<double>(baseline_cycles) -
                          1.0),
                 stats.reliability.FaultsInjected(),
                 stats.reliability.retransmissions,
                 stats.reliability.checkpoints,
                 stats.reliability.walkers_recovered,
                 stats.reliability.walkers_lost,
                 stats.reliability.replayed_steps});
    }
  }
  return Report("ext_fault_tolerance", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
