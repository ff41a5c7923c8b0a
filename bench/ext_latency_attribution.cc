// Extension experiment (observability): per-component latency
// attribution under load and faults. Sweeps offered load (as a multiple
// of calibrated batch capacity) against the uncorrectable-ECC fault
// rate, records every query's span tree, and reports where the cycles
// of breached queries went: per-component p99 over all queries plus the
// dominant-component tally of the breach report, with the number of SLO
// burn-rate alert firings.
//
// Expected shape: fault-free overload is dominated by queue_wait (the
// admission queue is the bottleneck); injected DRAM faults shift the
// dominant component toward dram_fetch/backoff (failed walks burn their
// deadline in retries); burn alerts fire only in the overloaded or
// faulty cells.

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "obs/critical_path.h"
#include "obs/span.h"
#include "service/walk_service.h"

namespace lightrw::bench {
namespace {

using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using obs::AnalyzeCriticalPaths;
using obs::AttributionReport;
using obs::BurnRateConfig;
using obs::ComputeBurnAlerts;
using obs::SpanRecorder;
using service::ServiceConfig;
using service::ServiceRunStats;
using service::WalkService;

constexpr uint32_t kBoards = 2;
constexpr uint32_t kInflightPerBoard = 8;
constexpr uint32_t kWalkLength = 16;
constexpr uint64_t kNumQueries = 512;

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

// Closed-loop batch capacity of the same cluster (queries per 1024
// cycles), the reference the load multiples are expressed against.
double CapacityPerKcycle(const graph::CsrGraph& g, const apps::WalkApp& app,
                         const Partition& partition) {
  DistributedEngine engine(&g, &app, &partition, ServiceBase().cluster);
  const auto stats =
      engine.Run(StandardQueries(g, kWalkLength, kNumQueries)).value();
  return static_cast<double>(stats.queries) * 1024.0 /
         static_cast<double>(stats.cycles);
}

// Deadline just above the unloaded p99: queueing or retries make walks
// late, so attribution has breaches to explain in the loaded cells.
uint64_t CalibratedDeadline(const graph::CsrGraph& g,
                            const apps::WalkApp& app,
                            const Partition& partition, double capacity) {
  ServiceConfig config = ServiceBase();
  config.arrivals.rate_per_kcycle = 0.25 * capacity;
  WalkService walk_service(&g, &app, &partition, config);
  ServiceRunStats stats = walk_service.Run().value();
  return static_cast<uint64_t>(1.3 * stats.latency_cycles.Quantile(0.99));
}

int Main() {
  std::vector<Column> columns = {
      {"load_multiple", "load", 6, Num(2)},
      {"fault_rate", "faults", 8, Num(4)},
      {"offered", ""},
      {"completed", "done", 6},
      {"shed", "shed", 6},
      {"failed", "fail", 6},
      {"deadline_violations", "late", 6},
      {"queries_analyzed", ""},
      {"breached", "breached", 8},
      {"", "top dominant", 22},
      {"burn_alert_firings", "alerts", 8}};
  for (size_t c = 0; c < obs::kNumComponents; ++c) {
    columns.push_back(
        {std::string("dominant_") + obs::ComponentName(c), ""});
  }
  for (size_t c = 0; c < obs::kNumComponents; ++c) {
    columns.push_back(
        {std::string("p99_") + obs::ComponentName(c) + "_cycles", ""});
  }
  Table table(
      "Extension: latency attribution (offered load x fault rate; "
      "dominant components of breached queries and per-component p99)",
      std::move(columns));

  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  const double capacity = CapacityPerKcycle(g, app, partition);
  const uint64_t deadline = CalibratedDeadline(g, app, partition, capacity);

  for (const double load_multiple : {0.5, 1.0, 2.0}) {
    for (const double fault_rate : {0.0, 2e-3}) {
      ServiceConfig config = ServiceBase();
      config.arrivals.rate_per_kcycle = load_multiple * capacity;
      config.arrivals.deadline_cycles = deadline;
      if (fault_rate > 0.0) {
        config.cluster.board.faults.enabled = true;
        config.cluster.board.faults.seed = kBenchSeed;
        config.cluster.board.faults.dram_uncorrectable_rate = fault_rate;
        // First uncorrectable hit fails the access (and so the walk): the
        // sweep is about where failed attempts spend their latency, not
        // about the ECC retry ladder.
        config.cluster.board.faults.max_dram_retries = 0;
      }
      SpanRecorder spans;
      config.cluster.board.spans = &spans;
      WalkService walk_service(&g, &app, &partition, config);
      const auto result = walk_service.Run();
      if (!result.ok()) {
        return RunFailed(result.status());
      }
      const ServiceRunStats& stats = *result;

      const AttributionReport report = AnalyzeCriticalPaths(spans);
      BurnRateConfig burn;
      burn.budget = 0.05;
      uint64_t burn_alert_firings = 0;
      for (const auto& alert : ComputeBurnAlerts(spans.Summaries(), burn)) {
        burn_alert_firings += alert.firing ? 1 : 0;
      }
      size_t top = 0;
      for (size_t c = 1; c < obs::kNumComponents; ++c) {
        if (report.dominant_counts[c] > report.dominant_counts[top]) {
          top = c;
        }
      }
      const std::string top_label =
          report.breached_count == 0
              ? "-"
              : std::string(obs::ComponentName(top)) + " x" +
                    std::to_string(report.dominant_counts[top]);
      std::vector<obs::Json> cells = {load_multiple,
                                      fault_rate,
                                      stats.offered,
                                      stats.completed,
                                      stats.Shed(),
                                      stats.failed,
                                      stats.deadline_violations,
                                      report.queries_analyzed,
                                      report.breached_count,
                                      top_label,
                                      burn_alert_firings};
      for (size_t c = 0; c < obs::kNumComponents; ++c) {
        cells.push_back(report.dominant_counts[c]);
      }
      for (size_t c = 0; c < obs::kNumComponents; ++c) {
        cells.push_back(report.component_cycles[c].count() > 0
                            ? report.component_cycles[c].Quantile(0.99)
                            : 0.0);
      }
      table.Add(std::move(cells));
    }
  }
  return Report("ext_latency_attribution", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
