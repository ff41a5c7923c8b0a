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

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
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
using service::ServiceRunStats;
using service::WalkService;

constexpr uint32_t kBoards = 2;
constexpr uint32_t kWalkLength = 32;
constexpr uint64_t kNumQueries = 1024;

struct Row {
  std::string scenario;
  uint64_t scrape_interval = 0;  // 0 = telemetry disabled
  uint64_t cycles = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t windows = 0;
  uint64_t series = 0;
  uint64_t points = 0;
  uint64_t exemplars = 0;
  uint64_t incidents = 0;
};

std::vector<Row>& Rows() {
  static auto* rows = new std::vector<Row>();
  return *rows;
}

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

// Reads the structural yield of a finished recorder off its export.
void FillTelemetryColumns(const TimeSeriesRecorder& ts, Row* row) {
  row->windows = ts.num_windows();
  row->incidents = ts.DetectIncidents().size();
  const obs::Json doc = ts.ToJson();
  const obs::Json* series = doc.Find("series");
  row->series = series->size();
  for (const obs::Json& entry : series->array()) {
    for (const obs::Json& point : entry.Find("points")->array()) {
      ++row->points;
      if (point.Find("exemplar") != nullptr) {
        ++row->exemplars;
      }
    }
  }
}

void TelemetryOverloadBench(benchmark::State& state,
                            uint64_t scrape_interval) {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  ServiceConfig config = OverloadConfig();

  Row row;
  row.scenario = "overload";
  row.scrape_interval = scrape_interval;
  for (auto _ : state) {
    TimeSeriesConfig ts_config;
    ts_config.scrape_interval = scrape_interval > 0 ? scrape_interval : 1;
    TimeSeriesRecorder ts(ts_config);
    if (scrape_interval > 0) {
      config.cluster.board.timeseries = &ts;
    }
    WalkService walk_service(&g, &app, &partition, config);
    const auto result = walk_service.Run();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    const ServiceRunStats& stats = *result;
    row.cycles = stats.cycles;
    row.completed = stats.completed;
    row.shed = stats.Shed();
    if (scrape_interval > 0) {
      FillTelemetryColumns(ts, &row);
    }
  }
  state.counters["windows"] = static_cast<double>(row.windows);
  state.counters["incidents"] = static_cast<double>(row.incidents);
  Rows().push_back(row);
}

// Board death absorbed by a hot spare, scraped at a fine interval: the
// membership-death counter spike must surface as a detected incident.
void TelemetryChaosBench(benchmark::State& state) {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;
  const Partition partition =
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

  const auto queries = StandardQueries(g, kWalkLength, kNumQueries);
  Row row;
  row.scenario = "board_death";
  row.scrape_interval = 1024;
  for (auto _ : state) {
    TimeSeriesConfig ts_config;
    ts_config.scrape_interval = row.scrape_interval;
    TimeSeriesRecorder ts(ts_config);
    config.board.timeseries = &ts;
    DistributedEngine engine(&g, &app, &partition, config);
    const auto result = engine.Run(queries);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    row.cycles = result->cycles;
    row.completed = result->queries;
    row.shed = 0;
    FillTelemetryColumns(ts, &row);
  }
  state.counters["windows"] = static_cast<double>(row.windows);
  state.counters["incidents"] = static_cast<double>(row.incidents);
  Rows().push_back(row);
}

void RegisterAll() {
  const uint64_t kIntervals[] = {0, 1024, 4096, 16384};
  for (const uint64_t interval : kIntervals) {
    const std::string name =
        "ExtTelemetryOverload/interval:" +
        (interval == 0 ? std::string("off") : std::to_string(interval));
    benchmark::RegisterBenchmark(name.c_str(),
                                 [interval](benchmark::State& st) {
                                   TelemetryOverloadBench(st, interval);
                                 })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "ExtTelemetryOverload/chaos:board_death",
      [](benchmark::State& st) { TelemetryChaosBench(st); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void PrintSummary() {
  PrintReportHeader(
      "Extension: telemetry scraping under overload (windows, series, "
      "exemplars, and incidents per scrape interval; scraping must not "
      "perturb the simulated run)");
  const std::vector<int> widths = {12, 9, 10, 6, 6, 8, 7, 7, 10, 10};
  PrintRow({"scenario", "interval", "cycles", "done", "shed", "windows",
            "series", "points", "exemplars", "incidents"},
           widths);
  for (const Row& row : Rows()) {
    PrintRow({row.scenario,
              row.scrape_interval == 0 ? "off"
                                       : std::to_string(row.scrape_interval),
              std::to_string(row.cycles), std::to_string(row.completed),
              std::to_string(row.shed), std::to_string(row.windows),
              std::to_string(row.series), std::to_string(row.points),
              std::to_string(row.exemplars), std::to_string(row.incidents)},
             widths);
  }

  obs::Json rows = obs::Json::MakeArray();
  for (const Row& row : Rows()) {
    obs::Json r = obs::Json::MakeObject();
    r.Set("scenario", row.scenario);
    r.Set("scrape_interval", row.scrape_interval);
    r.Set("cycles", row.cycles);
    r.Set("completed", row.completed);
    r.Set("shed", row.shed);
    r.Set("windows", row.windows);
    r.Set("series", row.series);
    r.Set("points", row.points);
    r.Set("exemplars", row.exemplars);
    r.Set("incidents", row.incidents);
    rows.Append(std::move(r));
  }
  WriteBenchJson("ext_telemetry_overload", std::move(rows));
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
