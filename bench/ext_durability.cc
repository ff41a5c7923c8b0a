// Extension experiment (robustness): durable checkpoint store overhead
// and integrity under injected storage faults. Sweeps the store on/off,
// the checkpoint cadence, the bit-rot rate, and the scrubber bandwidth
// on a partitioned 4-board cluster with a mid-run owner death, plus one
// total-owner-loss configuration (every owner killed back-to-back, one
// spare) that only the store makes survivable.
//
// Expected shape: the store costs a few percent over in-memory
// checkpointing (write latency rides the checkpoint cadence, so shorter
// intervals cost more); bit rot shows up as CRC failures absorbed by
// replica fallback and scrub repairs, never as silent corruption; a
// starved scrubber shifts detections from scrub-time to read-time
// (more fallbacks) without losing walks while a validating generation
// survives; and the all-owner-loss row completes every walk from
// durable state alone — walkers_lost stays 0 without a live survivor.

#include <cstdint>
#include <string>
#include <vector>

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
constexpr uint32_t kWalkLength = 24;

struct Point {
  bool store = false;
  bool all_owner_loss = false;
  uint32_t ckpt_interval = 4096;
  double bit_rot = 0.0;
  double scrub_bytes = 64.0;
};

DistributedConfig BaseConfig() {
  DistributedConfig config;
  config.board = DefaultAccelConfig();
  config.board.num_instances = 1;
  config.replicate_graph = false;  // partitioned: shares die with owners
  return config;
}

distributed::DistributedRunStats RunOnce(const DistributedConfig& config) {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeNode2Vec();
  const auto queries = StandardQueries(g, kWalkLength);
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  DistributedEngine engine(&g, app.get(), &partition, config);
  return engine.Run(queries).value();
}

int Main() {
  // The store column is 1.0/0.0 in the BENCH json.
  const CellFormat on_off = [](const obs::Json& on) -> std::string {
    return on.double_value() != 0.0 ? "on" : "off";
  };
  Table table(
      "Extension: durable checkpoint store (cadence x bit rot x scrub "
      "bandwidth; overhead vs the fault-free baseline)",
      {{"store", "store", 6, on_off},
       {"all_owner_loss", ""},
       {"", "deaths", 7},
       {"ckpt_interval", "interval", 9},
       {"bit_rot_per_byte", "bit rot", 8, Num(4)},
       {"scrub_bytes_per_cycle", "scrub", 6, Num(0)},
       {"deaths", ""},
       {"msteps_per_s", "Msteps/s", 10},
       {"overhead_pct", "overhead", 9, Num(1, "%")},
       {"ckpt_writes", "writes", 7},
       {"ckpt_reads", "reads", 6},
       {"crc_failures", "crc", 6},
       {"fallbacks", "fallback", 9},
       {"scrub_repairs", "repair", 7},
       {"unrecoverable", ""},
       {"silent_accepts", ""},
       {"walkers_recovered", ""},
       {"walkers_lost", "lost", 5},
       {"rebuilds_completed", ""}});
  const Point kPoints[] = {
      {},                               // store off
      {true, false, 4096, 0.0, 64.0},   // cadence sweep
      {true, false, 1024, 0.0, 64.0},
      {true, false, 16384, 0.0, 64.0},
      {true, false, 4096, 2e-4, 64.0},  // bit rot
      {true, false, 4096, 1e-3, 8.0},   // bit rot, starved scrubber
      {true, true, 4096, 0.0, 64.0},    // every owner dies
  };
  // Fault-free reference: anchors the death cycles and the overhead.
  const uint64_t baseline_cycles = RunOnce(BaseConfig()).cycles;
  const uint64_t first_death = baseline_cycles / 4;
  for (const Point& point : kPoints) {
    DistributedConfig config = BaseConfig();
    config.num_spare_boards = 1;
    config.rebuild_bytes_per_cycle = 64.0;
    config.board.faults.enabled = true;
    config.board.faults.seed = kBenchSeed;
    config.board.faults.checkpoint_interval_cycles = point.ckpt_interval;
    if (point.all_owner_loss) {
      // Every owner dies in a tight burst: for a window nothing is alive
      // and the walkers' only way home is the durable store.
      for (uint32_t b = 0; b < kBoards; ++b) {
        config.board.faults.board_deaths.push_back(
            {first_death + b * 2048, b});
      }
    } else {
      config.board.faults.board_deaths.push_back({first_death, 1});
    }
    if (point.store) {
      auto& store = config.board.faults.ckpt_store;
      store.enabled = true;
      store.bit_rot_per_byte = point.bit_rot;
      store.scrub_bytes_per_cycle = point.scrub_bytes;
    }

    const auto stats = RunOnce(config);
    const auto& rel = stats.reliability;
    const uint64_t deaths = config.board.faults.board_deaths.size();
    table.Add({point.store ? 1.0 : 0.0, point.all_owner_loss ? 1.0 : 0.0,
               deaths, uint64_t{point.ckpt_interval}, point.bit_rot,
               point.scrub_bytes, deaths, stats.StepsPerSecond() / 1e6,
               100.0 * (static_cast<double>(stats.cycles) /
                            static_cast<double>(baseline_cycles) -
                        1.0),
               rel.ckpt_store_writes, rel.ckpt_store_reads,
               rel.ckpt_crc_failures, rel.ckpt_fallbacks,
               rel.ckpt_scrub_repairs, rel.ckpt_unrecoverable,
               rel.ckpt_silent_accepts, rel.walkers_recovered,
               rel.walkers_lost, rel.rebuilds_completed});
  }
  return Report("ext_durability", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
