// Extension experiment (service): overload behaviour of the walk-serving
// front end. Calibrates the cluster's batch capacity, then sweeps the
// offered arrival rate across it (0.25x .. 4x) for tight and loose
// deadlines, with graceful degradation on and off.
//
// Expected shape: goodput saturates near capacity while the shed rate
// and the deadline-violation rate (late fraction of delivered walks)
// rise monotonically with offered load; enabling degradation strictly
// lowers the violation rate at every overloaded point by trading walk
// length/quality for queue drain speed.

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "service/walk_service.h"

namespace lightrw::bench {
namespace {

using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using service::ServiceConfig;
using service::ServiceRunStats;
using service::WalkService;

constexpr uint32_t kBoards = 2;
constexpr uint32_t kInflightPerBoard = 8;
constexpr uint32_t kWalkLength = 32;
constexpr uint64_t kNumQueries = 1024;

ServiceConfig ServiceBase() {
  ServiceConfig config;
  config.cluster.board = DefaultAccelConfig();
  config.cluster.board.num_instances = 1;
  config.cluster.inflight_walkers_per_board = kInflightPerBoard;
  config.queue_capacity = 8;
  config.retry_budget = 1;
  config.retry_backoff_cycles = 256;
  config.arrivals.seed = kBenchSeed;
  config.arrivals.num_queries = kNumQueries;
  config.arrivals.walk_length = kWalkLength;
  return config;
}

// Closed-loop batch throughput of the same cluster on the same query
// shape: the capacity the open-loop sweep is expressed against.
// Queries served per 1024 cycles.
double CapacityPerKcycle(const graph::CsrGraph& g, const apps::WalkApp& app,
                         const Partition& partition) {
  DistributedEngine engine(&g, &app, &partition, ServiceBase().cluster);
  const auto stats =
      engine.Run(StandardQueries(g, kWalkLength, kNumQueries)).value();
  return static_cast<double>(stats.queries) * 1024.0 /
         static_cast<double>(stats.cycles);
}

// Deadlines only mean something relative to the unloaded walk latency,
// which moves with the scale shift. Calibrate them from an uncontended
// run: tight sits just above the unloaded p99 (any queueing makes walks
// late), loose leaves ~2.5x headroom.
struct Deadlines {
  uint64_t tight;
  uint64_t loose;
};

Deadlines CalibratedDeadlines(const graph::CsrGraph& g,
                              const apps::WalkApp& app,
                              const Partition& partition, double capacity) {
  ServiceConfig config = ServiceBase();
  config.arrivals.rate_per_kcycle = 0.25 * capacity;
  config.degrade_enabled = false;
  WalkService walk_service(&g, &app, &partition, config);
  ServiceRunStats stats = walk_service.Run().value();
  const double p99 = stats.latency_cycles.Quantile(0.99);
  return Deadlines{static_cast<uint64_t>(1.3 * p99),
                   static_cast<uint64_t>(1.6 * p99)};
}

int Main() {
  Table table(
      "Extension: service overload (offered load x deadline x degradation; "
      "load as a multiple of calibrated batch capacity)",
      {{"load_multiple", "load", 6, Num(2)},
       {"rate_per_kcycle", ""},
       {"deadline_cycles", "deadline", 10},
       {"degrade_enabled", "degrade", 9},
       {"offered", ""},
       {"completed", "done", 8},
       {"shed", "shed", 8},
       {"deadline_violations", "late", 6},
       {"degraded", "degr", 6},
       {"retries", "retry", 6},
       {"shed_rate", "shed rate", 10, Percent(1)},
       {"violation_rate", "late rate", 10, Percent(1)},
       {"goodput_per_s", "goodput/s", 10, Num(0)},
       {"throughput_per_s", ""},
       {"queue_delay_p50_cycles", ""},
       {"queue_delay_p99_cycles", ""}});
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  const double capacity = CapacityPerKcycle(g, app, partition);
  const Deadlines deadlines = CalibratedDeadlines(g, app, partition, capacity);
  for (const uint64_t deadline : {deadlines.tight, deadlines.loose}) {
    for (const double load_multiple : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      for (const bool degrade : {false, true}) {
        ServiceConfig config = ServiceBase();
        config.arrivals.rate_per_kcycle = load_multiple * capacity;
        config.arrivals.deadline_cycles = deadline;
        config.degrade_enabled = degrade;
        WalkService walk_service(&g, &app, &partition, config);
        const auto result = walk_service.Run();
        if (!result.ok()) {
          return RunFailed(result.status());
        }
        const ServiceRunStats& stats = *result;
        const bool delayed = stats.queue_delay_cycles.count() > 0;
        table.Add(
            {load_multiple, config.arrivals.rate_per_kcycle, deadline,
             degrade, stats.offered, stats.completed, stats.Shed(),
             stats.deadline_violations, stats.degraded, stats.retries,
             stats.ShedRate(), stats.ViolationRate(),
             stats.GoodputPerSecond(),
             stats.seconds > 0.0
                 ? static_cast<double>(stats.completed) / stats.seconds
                 : 0.0,
             delayed ? stats.queue_delay_cycles.Quantile(0.5) : 0.0,
             delayed ? stats.queue_delay_cycles.Quantile(0.99) : 0.0});
      }
    }
  }
  return Report("ext_service_overload", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
