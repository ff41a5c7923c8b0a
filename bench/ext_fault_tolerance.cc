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

#include <benchmark/benchmark.h>

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

struct Row {
  double link_rate = 0.0;
  uint64_t checkpoint_interval = 0;
  double msteps_per_s = 0.0;
  double overhead_pct = 0.0;  // cycles vs the fault-free baseline
  uint64_t faults = 0;
  uint64_t retransmissions = 0;
  uint64_t checkpoints = 0;
  uint64_t recovered = 0;
  uint64_t lost = 0;
  uint64_t replayed_steps = 0;
};

std::vector<Row>& Rows() {
  static auto* rows = new std::vector<Row>();
  return *rows;
}

DistributedConfig BaseConfig() {
  DistributedConfig config;
  config.board = DefaultAccelConfig();
  config.board.num_instances = 1;  // one accelerator channel per board
  // Partitioned mode: walkers migrate between boards, so link faults
  // actually hit the wire and recovery re-dispatches to the vertex owner.
  config.replicate_graph = false;
  return config;
}

// Fault-free makespan, used to place the board failure mid-run and to
// express recovery overhead as a ratio. Computed once.
uint64_t BaselineCycles() {
  static uint64_t cycles = [] {
    const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
    const auto app = MakeMetaPath(g);
    const auto queries = StandardQueries(g, kMetaPathLength);
    const Partition partition =
        MakePartition(g, kBoards, PartitionStrategy::kHash);
    DistributedEngine engine(&g, app.get(), &partition, BaseConfig());
    return engine.Run(queries).value().cycles;
  }();
  return cycles;
}

void FaultToleranceBench(benchmark::State& state, double link_rate,
                         uint64_t checkpoint_interval) {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeMetaPath(g);
  const auto queries = StandardQueries(g, kMetaPathLength);
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);

  DistributedConfig config = BaseConfig();
  config.board.faults.enabled = true;
  config.board.faults.seed = kBenchSeed;
  config.board.faults.link_drop_rate = link_rate / 2;
  config.board.faults.link_corrupt_rate = link_rate / 2;
  config.board.faults.board_deaths = {{BaselineCycles() / 2, /*board=*/1}};
  config.board.faults.checkpoint_interval_cycles = checkpoint_interval;
  // The interval-0 rows measure the no-checkpoint loss mode on purpose.
  config.board.faults.allow_walker_loss = true;

  Row row;
  row.link_rate = link_rate;
  row.checkpoint_interval = checkpoint_interval;
  for (auto _ : state) {
    DistributedEngine engine(&g, app.get(), &partition, config);
    const auto result = engine.Run(queries);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    const auto& stats = *result;
    row.msteps_per_s = stats.StepsPerSecond() / 1e6;
    row.overhead_pct =
        100.0 * (static_cast<double>(stats.cycles) /
                     static_cast<double>(BaselineCycles()) -
                 1.0);
    row.faults = stats.reliability.FaultsInjected();
    row.retransmissions = stats.reliability.retransmissions;
    row.checkpoints = stats.reliability.checkpoints;
    row.recovered = stats.reliability.walkers_recovered;
    row.lost = stats.reliability.walkers_lost;
    row.replayed_steps = stats.reliability.replayed_steps;
  }
  state.counters["Msteps"] = row.msteps_per_s;
  state.counters["overhead_pct"] = row.overhead_pct;
  state.counters["lost"] = static_cast<double>(row.lost);
  Rows().push_back(row);
}

void RegisterAll() {
  const double kRates[] = {0.0, 0.001, 0.01, 0.05};
  const uint64_t kIntervals[] = {0, 1u << 12, 1u << 16, 1u << 20};
  for (const double rate : kRates) {
    for (const uint64_t interval : kIntervals) {
      const std::string name = "ExtFaultTolerance/rate:" +
                               FormatDouble(rate, 3) +
                               "/ckpt:" + std::to_string(interval);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [rate, interval](benchmark::State& st) {
            FaultToleranceBench(st, rate, interval);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintSummary() {
  PrintReportHeader(
      "Extension: fault tolerance (link fault rate x checkpoint interval, "
      "board 1 killed mid-run; overhead vs fault-free baseline)");
  const std::vector<int> widths = {10, 12, 10, 10, 8, 10, 10, 8, 6, 10};
  PrintRow({"link rate", "ckpt cycles", "Msteps/s", "overhead", "faults",
            "retrans", "ckpts", "recov", "lost", "replayed"},
           widths);
  for (const Row& row : Rows()) {
    PrintRow({FormatDouble(row.link_rate, 3),
              std::to_string(row.checkpoint_interval),
              FormatDouble(row.msteps_per_s),
              FormatDouble(row.overhead_pct, 1) + "%",
              std::to_string(row.faults),
              std::to_string(row.retransmissions),
              std::to_string(row.checkpoints), std::to_string(row.recovered),
              std::to_string(row.lost), std::to_string(row.replayed_steps)},
             widths);
  }

  obs::Json rows = obs::Json::MakeArray();
  for (const Row& row : Rows()) {
    obs::Json r = obs::Json::MakeObject();
    r.Set("link_rate", row.link_rate);
    r.Set("checkpoint_interval_cycles", row.checkpoint_interval);
    r.Set("msteps_per_s", row.msteps_per_s);
    r.Set("overhead_pct", row.overhead_pct);
    r.Set("faults_injected", row.faults);
    r.Set("retransmissions", row.retransmissions);
    r.Set("checkpoints", row.checkpoints);
    r.Set("walkers_recovered", row.recovered);
    r.Set("walkers_lost", row.lost);
    r.Set("replayed_steps", row.replayed_steps);
    rows.Append(std::move(r));
  }
  WriteBenchJson("ext_fault_tolerance", std::move(rows));
}

}  // namespace
}  // namespace lightrw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  lightrw::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  lightrw::bench::PrintSummary();
  benchmark::Shutdown();
  return 0;
}
