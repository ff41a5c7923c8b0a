// Extension experiment (observability): cost and yield of simulated-time
// telemetry scraping under service overload. Runs the same overloaded
// walk-serving workload with scraping disabled and across a sweep of
// scrape intervals, then a board-death chaos scenario at a fine
// interval. Every row field is simulated state (windows, series,
// points, exemplars, incidents, completions), so the 1-vs-4-thread
// determinism diff applies to this bench exactly like the engines.
//
// Expected shape: the scraped run completes exactly as many walks in
// exactly as many cycles as the unscraped one (telemetry is
// passive), window count scales inversely with the interval, and the
// chaos scenario yields at least one detected incident while the
// steady-state overload run yields none at coarse intervals.

#include <string>
#include <vector>

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "obs/json.h"
#include "obs/timeseries.h"
#include "service/walk_service.h"

namespace lightrw::bench {
namespace {

using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using obs::TimeSeriesConfig;
using obs::TimeSeriesRecorder;
using service::ServiceConfig;
using service::WalkService;

constexpr uint32_t kBoards = 2;
constexpr uint32_t kWalkLength = 32;
constexpr uint64_t kNumQueries = 1024;

ServiceConfig OverloadConfig() {
  ServiceConfig config;
  config.cluster.board = DefaultAccelConfig();
  config.cluster.board.num_instances = 1;
  config.cluster.inflight_walkers_per_board = 8;
  config.queue_capacity = 8;
  config.retry_budget = 1;
  config.retry_backoff_cycles = 256;
  config.arrivals.seed = kBenchSeed;
  config.arrivals.num_queries = kNumQueries;
  config.arrivals.walk_length = kWalkLength;
  // Well past the cluster's closed-loop capacity so shedding, breaker
  // trips, and retries all feed the scraped series.
  config.arrivals.rate_per_kcycle = 24.0;
  config.arrivals.deadline_cycles = 1 << 14;
  return config;
}

struct TelemetryYield {
  uint64_t windows = 0;
  uint64_t series = 0;
  uint64_t points = 0;
  uint64_t exemplars = 0;
  uint64_t incidents = 0;
};

// Reads the structural yield of a finished recorder off its export.
TelemetryYield ReadYield(const TimeSeriesRecorder& ts) {
  TelemetryYield yield;
  yield.windows = ts.num_windows();
  yield.incidents = ts.DetectIncidents().size();
  const obs::Json doc = obs::Json::Parse(ts.ToJsonString()).value();
  const obs::Json* series = doc.Find("series");
  yield.series = series->size();
  for (const obs::Json& entry : series->array()) {
    for (const obs::Json& point : entry.Find("points")->array()) {
      ++yield.points;
      if (point.Find("exemplar") != nullptr) {
        ++yield.exemplars;
      }
    }
  }
  return yield;
}

int Main() {
  const CellFormat interval_or_off = [](const obs::Json& interval) {
    return interval.uint_value() == 0 ? std::string("off")
                                      : std::to_string(interval.uint_value());
  };
  Table table(
      "Extension: telemetry scraping under overload (windows, series, "
      "exemplars, and incidents per scrape interval; scraping must not "
      "perturb the simulated run)",
      {{"scenario", "scenario", 12},
       {"scrape_interval", "interval", 9, interval_or_off},
       {"cycles", "cycles", 10},
       {"completed", "done", 6},
       {"shed", "shed", 6},
       {"windows", "windows", 8},
       {"series", "series", 7},
       {"points", "points", 7},
       {"exemplars", "exemplars", 10},
       {"incidents", "incidents", 10}});
  const auto add = [&table](const char* scenario, uint64_t interval,
                            uint64_t cycles, uint64_t completed,
                            uint64_t shed, const TelemetryYield& yield) {
    table.Add({scenario, interval, cycles, completed, shed, yield.windows,
               yield.series, yield.points, yield.exemplars,
               yield.incidents});
  };
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;

  // The same overloaded service run, unscraped (interval 0) and scraped.
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  for (const uint64_t interval : {0, 1024, 4096, 16384}) {
    TimeSeriesConfig ts_config;
    ts_config.scrape_interval = interval > 0 ? interval : 1;
    TimeSeriesRecorder ts(ts_config);
    ServiceConfig config = OverloadConfig();
    if (interval > 0) {
      config.cluster.board.timeseries = &ts;
    }
    WalkService walk_service(&g, &app, &partition, config);
    const auto result = walk_service.Run();
    if (!result.ok()) {
      return RunFailed(result.status());
    }
    add("overload", interval, result->cycles, result->completed,
        result->Shed(), interval > 0 ? ReadYield(ts) : TelemetryYield{});
  }

  // Board death absorbed by a hot spare, scraped at a fine interval: the
  // membership-death counter spike must surface as a detected incident.
  const Partition chaos_partition =
      MakePartition(g, 4, PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = DefaultAccelConfig();
  config.board.num_instances = 1;
  config.replicate_graph = true;
  config.num_spare_boards = 1;
  config.rebuild_bytes_per_cycle = 256.0;
  config.board.faults.enabled = true;
  config.board.faults.seed = 3;
  config.board.faults.checkpoint_interval_cycles = 1 << 12;
  config.board.faults.board_deaths = {{1 << 14, /*board=*/1}};
  TimeSeriesConfig ts_config;
  ts_config.scrape_interval = 1024;
  TimeSeriesRecorder ts(ts_config);
  config.board.timeseries = &ts;
  DistributedEngine engine(&g, &app, &chaos_partition, config);
  const auto result =
      engine.Run(StandardQueries(g, kWalkLength, kNumQueries));
  if (!result.ok()) {
    return RunFailed(result.status());
  }
  add("board_death", ts_config.scrape_interval, result->cycles,
      result->queries, 0, ReadYield(ts));
  return Report("ext_telemetry_overload", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
