// Host-throughput workload: WalkService under overload with span
// recording on — the configuration where admission queues, retries, the
// circuit breaker, and the span/trace observability stack all sit on
// the host's critical path. The spans/sec rate exercises the
// SpanRecorder pool; walks/sec covers the service event loop.

#include <cstdio>

#include "apps/walk_app.h"
#include "bench_util.h"
#include "distributed/partition.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "perf/perf_harness.h"
#include "service/walk_service.h"

namespace lightrw::bench {
namespace {

constexpr uint32_t kBoards = 2;
constexpr uint32_t kInflightPerBoard = 8;
constexpr uint32_t kWalkLength = 32;
constexpr uint64_t kNumQueries = 768;

int Main() {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      g, kBoards, distributed::PartitionStrategy::kHash);

  service::ServiceConfig config;
  config.cluster.board = DefaultAccelConfig();
  config.cluster.board.num_instances = 1;
  config.cluster.inflight_walkers_per_board = kInflightPerBoard;
  config.queue_capacity = 8;
  config.retry_budget = 1;
  config.retry_backoff_cycles = 256;
  config.arrivals.seed = kBenchSeed;
  config.arrivals.num_queries = kNumQueries;
  config.arrivals.walk_length = kWalkLength;
  // Well above the two-board closed-loop capacity at every scale shift:
  // queues stay full, so sheds, retries, and degradation all fire.
  config.arrivals.rate_per_kcycle = 8.0;
  config.arrivals.deadline_cycles = 1 << 14;

  perf::MonotonicClock clock;
  const perf::RepeatConfig repeat = perf::RepeatConfigFromEnv();
  const perf::WorkloadResult overload = perf::MeasureWorkload(
      "overload_spans", repeat, &clock, [&]() -> perf::WorkCounters {
        obs::SpanRecorder recorder;
        // Telemetry scraping at the default interval rides along with
        // span recording, matching how operators run the service.
        obs::TimeSeriesRecorder timeseries;
        service::ServiceConfig run_config = config;
        run_config.cluster.board.spans = &recorder;
        run_config.cluster.board.timeseries = &timeseries;
        service::WalkService walk_service(&g, &app, &partition, run_config);
        const service::ServiceRunStats stats = walk_service.Run().value();
        perf::WorkCounters counters;
        counters.simulated_cycles = stats.cycles;
        counters.walks = stats.completed;
        counters.steps = stats.cluster.steps;
        counters.spans = recorder.num_spans();
        return counters;
      });

  std::printf("perf_service: %s walks/s median %.1f, spans/s median %.1f "
              "(%llu spans/run)\n",
              overload.name.c_str(), overload.walks_per_sec.median,
              overload.spans_per_sec.median,
              static_cast<unsigned long long>(overload.counters.spans));
  return perf::WritePerfJson("perf_service", {overload}) ? 0 : 1;
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
