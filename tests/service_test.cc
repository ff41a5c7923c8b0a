#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "distributed/config_validation.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "lightrw/functional_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/arrival.h"
#include "service/walk_service.h"

namespace lightrw::service {
namespace {

using apps::StaticWalkApp;
using apps::WalkQuery;
using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using graph::CsrGraph;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/4);
}

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.cluster.board.num_instances = 1;
  config.cluster.board.seed = 13;
  config.arrivals.seed = 7;
  config.arrivals.num_queries = 128;
  config.arrivals.walk_length = 16;
  config.arrivals.rate_per_kcycle = 0.05;  // leisurely: no queue buildup
  return config;
}

// Offered load beyond what the boards can sustain, with deadlines
// tight enough that queueing delay pushes completions past them.
ServiceConfig OverloadConfig() {
  ServiceConfig config = BaseConfig();
  config.arrivals.num_queries = 512;
  config.arrivals.walk_length = 32;
  config.arrivals.rate_per_kcycle = 2.0;
  config.arrivals.deadline_cycles = 1 << 14;
  config.queue_capacity = 8;
  config.retry_budget = 1;
  config.retry_backoff_cycles = 256;
  config.cluster.inflight_walkers_per_board = 8;
  return config;
}

// --- config validation: one test per rejected field -----------------------

TEST(ServiceValidationTest, AcceptsDefaults) {
  EXPECT_TRUE(ValidateServiceConfig(BaseConfig()).ok());
}

TEST(ServiceValidationTest, RejectsZeroQueueCapacity) {
  ServiceConfig config = BaseConfig();
  config.queue_capacity = 0;
  EXPECT_FALSE(ValidateServiceConfig(config).ok());
}

TEST(ServiceValidationTest, RejectsZeroBackoffWithRetriesEnabled) {
  ServiceConfig config = BaseConfig();
  config.retry_budget = 1;
  config.retry_backoff_cycles = 0;
  EXPECT_FALSE(ValidateServiceConfig(config).ok());
}

TEST(ServiceValidationTest, AcceptsZeroBackoffWithRetriesDisabled) {
  ServiceConfig config = BaseConfig();
  config.retry_budget = 0;
  config.retry_backoff_cycles = 0;
  EXPECT_TRUE(ValidateServiceConfig(config).ok());
}

TEST(ServiceValidationTest, RejectsRetryBudgetWhoseBackoffCanOverflow) {
  // 512 = 2^9: the 38th retry backs off 2^46 cycles, the 39th 2^47.
  ServiceConfig config = BaseConfig();
  config.retry_backoff_cycles = 512;
  config.retry_budget = 38;
  EXPECT_TRUE(ValidateServiceConfig(config).ok());
  for (const uint32_t budget : {39u, 56u, 65u, UINT32_MAX}) {
    config.retry_budget = budget;
    const Status status = ValidateServiceConfig(config);
    ASSERT_FALSE(status.ok()) << budget;
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_NE(status.message().find("service retry backoff overflow"),
              std::string::npos);
  }
  // A wide base backoff leaves room for fewer retries.
  config.retry_backoff_cycles = uint64_t{1} << 40;
  config.retry_budget = 7;
  EXPECT_TRUE(ValidateServiceConfig(config).ok());
  config.retry_budget = 8;
  EXPECT_FALSE(ValidateServiceConfig(config).ok());
  // Without retries the backoff is never taken, whatever its width.
  config.retry_backoff_cycles = UINT64_MAX;
  config.retry_budget = 0;
  EXPECT_TRUE(ValidateServiceConfig(config).ok());
}

TEST(ServiceValidationTest, RejectsInvalidNestedClusterConfig) {
  ServiceConfig config = BaseConfig();
  config.cluster.walker_message_bytes = 0;
  EXPECT_FALSE(ValidateServiceConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsZeroQueries) {
  ArrivalConfig config;
  config.num_queries = 0;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsZeroWalkLength) {
  ArrivalConfig config;
  config.walk_length = 0;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsNonPositiveRate) {
  ArrivalConfig config;
  config.rate_per_kcycle = 0.0;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
  config.rate_per_kcycle = -1.0;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsNonPositiveBurstFactor) {
  ArrivalConfig config;
  config.burst_factor = 0.0;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsBurstOffWithoutBurstOn) {
  ArrivalConfig config;
  config.burst_off_cycles = 100;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsOutOfRangeBestEffortFraction) {
  ArrivalConfig config;
  config.best_effort_fraction = -0.1;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
  config.best_effort_fraction = 1.1;
  EXPECT_FALSE(ValidateArrivalConfig(config).ok());
}

TEST(ArrivalValidationTest, RejectsNanBestEffortFraction) {
  ArrivalConfig config;
  config.best_effort_fraction = std::numeric_limits<double>::quiet_NaN();
  const Status status = ValidateArrivalConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("best_effort_fraction"), std::string::npos);
}

// --- arrival generation ---------------------------------------------------

// A rate so low that the arrival clock passes 2^47 cycles is rejected,
// naming the field, instead of casting an out-of-range clock to Cycle.
TEST(ArrivalValidationTest, RejectsRateWhoseClockPassesTwoToTheFortySeven) {
  const CsrGraph g = TestGraph();
  ArrivalConfig config;
  config.num_queries = 4;
  for (const double rate : {1e-30, 1e-12}) {
    config.rate_per_kcycle = rate;
    const auto arrivals = GenerateArrivals(config, g);
    ASSERT_FALSE(arrivals.ok()) << rate;
    EXPECT_EQ(arrivals.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(arrivals.status().message().find("arrivals.rate_per_kcycle"),
              std::string::npos);
  }
  config.rate_per_kcycle = 1e-6;  // ~10^9-cycle gaps still fit
  EXPECT_TRUE(GenerateArrivals(config, g).ok());
}

TEST(ArrivalTest, DeterministicAndSortedWithDeadlines) {
  const CsrGraph g = TestGraph();
  ArrivalConfig config;
  config.num_queries = 200;
  config.deadline_cycles = 5000;
  const auto a = GenerateArrivals(config, g).value();
  const auto b = GenerateArrivals(config, g).value();
  ASSERT_EQ(a.size(), 200u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].query.start, b[i].query.start);
    EXPECT_EQ(a[i].best_effort, b[i].best_effort);
    EXPECT_EQ(a[i].deadline, a[i].arrival + 5000);
    EXPECT_GT(g.Degree(a[i].query.start), 0u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
}

TEST(ArrivalTest, RateControlsDensity) {
  const CsrGraph g = TestGraph();
  ArrivalConfig slow;
  slow.num_queries = 256;
  slow.rate_per_kcycle = 1.0;
  ArrivalConfig fast = slow;
  fast.rate_per_kcycle = 10.0;
  const auto a = GenerateArrivals(slow, g).value();
  const auto b = GenerateArrivals(fast, g).value();
  // 10x the rate compresses the span by roughly 10x.
  EXPECT_GT(a.back().arrival, b.back().arrival * 5);
}

TEST(ArrivalTest, BurstsCompressArrivals) {
  const CsrGraph g = TestGraph();
  ArrivalConfig steady;
  steady.num_queries = 512;
  steady.rate_per_kcycle = 1.0;
  ArrivalConfig bursty = steady;
  bursty.burst_factor = 8.0;
  bursty.burst_on_cycles = 1 << 14;
  bursty.burst_off_cycles = 1 << 14;
  const auto a = GenerateArrivals(steady, g).value();
  const auto b = GenerateArrivals(bursty, g).value();
  // The burst phases serve queries faster, shortening the total span.
  EXPECT_LT(b.back().arrival, a.back().arrival);
}

TEST(ArrivalTest, FailsOnGraphWithNoEdges) {
  const CsrGraph g;  // empty
  ArrivalConfig config;
  EXPECT_FALSE(GenerateArrivals(config, g).ok());
}

// --- service behaviour ----------------------------------------------------

TEST(WalkServiceTest, LowLoadCompletesEverythingUnshedAndUndegraded) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  WalkService service(&g, &app, &p, BaseConfig());
  const auto stats = service.Run().value();
  EXPECT_EQ(stats.offered, 128u);
  EXPECT_EQ(stats.completed, 128u);
  EXPECT_EQ(stats.Shed(), 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.deadline_violations, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
}

// The golden equivalence the per-ticket RNG design buys: at low load the
// service delivers byte-identical walks to a direct batch run over the
// same query list, and to the untimed path pass over it.
TEST(WalkServiceTest, LowLoadMatchesBatchEngineWalks) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  const ServiceConfig config = BaseConfig();

  WalkService service(&g, &app, &p, config);
  baseline::WalkOutput service_out;
  const auto service_stats = service.Run(&service_out).value();
  ASSERT_EQ(service_stats.completed, service_stats.offered);

  const auto arrivals = GenerateArrivals(config.arrivals, g).value();
  std::vector<WalkQuery> queries;
  queries.reserve(arrivals.size());
  for (const ServiceQuery& sq : arrivals) {
    queries.push_back(sq.query);
  }
  DistributedEngine engine(&g, &app, &p, config.cluster);
  baseline::WalkOutput batch_out;
  engine.Run(queries, &batch_out).value();
  baseline::WalkOutput functional_out;
  core::FunctionalEngine(&g, &app, config.cluster.board)
      .Run(queries, &functional_out);

  EXPECT_EQ(service_out.offsets, batch_out.offsets);
  EXPECT_EQ(service_out.vertices, batch_out.vertices);
  EXPECT_EQ(functional_out.offsets, batch_out.offsets);
  EXPECT_EQ(functional_out.vertices, batch_out.vertices);
}

TEST(WalkServiceTest, LowLoadMatchesBatchEngineWalksWithEarlyStopping) {
  const CsrGraph g = TestGraph();
  apps::PprApp app(0.2);  // geometric stopping exercises the aux stream
  const Partition p = MakePartition(g, 2, PartitionStrategy::kRange);
  ServiceConfig config = BaseConfig();
  config.arrivals.walk_length = 64;

  WalkService service(&g, &app, &p, config);
  baseline::WalkOutput service_out;
  service.Run(&service_out).value();

  const auto arrivals = GenerateArrivals(config.arrivals, g).value();
  std::vector<WalkQuery> queries;
  for (const ServiceQuery& sq : arrivals) {
    queries.push_back(sq.query);
  }
  DistributedEngine engine(&g, &app, &p, config.cluster);
  baseline::WalkOutput batch_out;
  engine.Run(queries, &batch_out).value();
  baseline::WalkOutput functional_out;
  core::FunctionalEngine(&g, &app, config.cluster.board)
      .Run(queries, &functional_out);

  EXPECT_EQ(service_out.offsets, batch_out.offsets);
  EXPECT_EQ(service_out.vertices, batch_out.vertices);
  EXPECT_EQ(functional_out.offsets, batch_out.offsets);
  EXPECT_EQ(functional_out.vertices, batch_out.vertices);
}

TEST(WalkServiceTest, SameSeedSameDecisions) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  const ServiceConfig config = OverloadConfig();
  WalkService a(&g, &app, &p, config);
  WalkService b(&g, &app, &p, config);
  baseline::WalkOutput out_a;
  baseline::WalkOutput out_b;
  const auto sa = a.Run(&out_a).value();
  const auto sb = b.Run(&out_b).value();
  EXPECT_EQ(sa.completed, sb.completed);
  EXPECT_EQ(sa.shed_queue_full, sb.shed_queue_full);
  EXPECT_EQ(sa.shed_breaker, sb.shed_breaker);
  EXPECT_EQ(sa.shed_deadline, sb.shed_deadline);
  EXPECT_EQ(sa.failed, sb.failed);
  EXPECT_EQ(sa.retries, sb.retries);
  EXPECT_EQ(sa.degraded, sb.degraded);
  EXPECT_EQ(sa.degraded_shortened, sb.degraded_shortened);
  EXPECT_EQ(sa.degraded_uniform, sb.degraded_uniform);
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(a.outcomes(), b.outcomes());
  EXPECT_EQ(out_a.offsets, out_b.offsets);
  EXPECT_EQ(out_a.vertices, out_b.vertices);
}

TEST(WalkServiceTest, OverloadShedsAndAccountsEveryQueryOnce) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  WalkService service(&g, &app, &p, OverloadConfig());
  const auto stats = service.Run().value();
  EXPECT_GT(stats.Shed(), 0u);
  EXPECT_GT(stats.completed, 0u);
  // The core accounting invariant: one terminal outcome per query.
  EXPECT_EQ(stats.completed + stats.Shed() + stats.failed, stats.offered);
  EXPECT_EQ(service.outcomes().size(), stats.offered);
  EXPECT_GT(stats.queue_delay_cycles.count(), 0u);
}

TEST(WalkServiceTest, DegradationProducesValidShortenedWalks) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  const ServiceConfig config = OverloadConfig();
  WalkService service(&g, &app, &p, config);
  baseline::WalkOutput out;
  const auto stats = service.Run(&out).value();
  EXPECT_GT(stats.degraded, 0u);
  EXPECT_GE(stats.degraded_shortened, stats.degraded_uniform);
  ASSERT_EQ(out.num_paths(), stats.offered);
  for (size_t i = 0; i < out.num_paths(); ++i) {
    const auto path = out.Path(i);
    // Shed queries deliver nothing; completed ones deliver a valid walk
    // no longer than requested.
    EXPECT_LE(path.size(), config.arrivals.walk_length + 1u);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(WalkServiceTest, DegradationLowersDeadlineViolations) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  ServiceConfig degraded = OverloadConfig();
  degraded.degrade_enabled = true;
  ServiceConfig rigid = OverloadConfig();
  rigid.degrade_enabled = false;
  const auto with =
      WalkService(&g, &app, &p, degraded).Run().value();
  const auto without =
      WalkService(&g, &app, &p, rigid).Run().value();
  EXPECT_GT(with.degraded, 0u);
  EXPECT_EQ(without.degraded, 0u);
  // Shorter, cheaper walks drain the backlog faster: strictly fewer
  // completions land past their deadline.
  EXPECT_LT(with.deadline_violations, without.deadline_violations);
}

TEST(WalkServiceTest, BoardDeathTripsBreakerAndReroutes) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  ServiceConfig config = BaseConfig();
  config.arrivals.num_queries = 256;
  config.arrivals.rate_per_kcycle = 2.0;
  config.retry_budget = 3;
  config.cluster.board.faults.enabled = true;
  config.cluster.board.faults.board_deaths = {{1 << 14, /*board=*/1}};
  WalkService service(&g, &app, &p, config);
  const auto stats = service.Run().value();
  EXPECT_EQ(stats.cluster.reliability.board_failures, 1u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GT(stats.retries, 0u);
  // Queries re-route onto survivors: the vast majority still completes,
  // and every query has exactly one outcome (never shed AND completed).
  EXPECT_EQ(stats.completed + stats.Shed() + stats.failed, stats.offered);
  EXPECT_GT(stats.completed, stats.offered * 3 / 4);
  size_t terminal = 0;
  for (const QueryOutcome outcome : service.outcomes()) {
    EXPECT_NE(outcome, QueryOutcome::kPending);
    ++terminal;
  }
  EXPECT_EQ(terminal, stats.offered);
}

TEST(WalkServiceTest, FailoverUnsatisfiableOnSingleBoard) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 1, PartitionStrategy::kHash);
  ServiceConfig config = BaseConfig();
  config.cluster.board.faults.enabled = true;
  config.cluster.board.faults.board_deaths = {{1000, /*board=*/0}};
  WalkService service(&g, &app, &p, config);
  EXPECT_FALSE(service.Run().ok());
}

TEST(WalkServiceTest, RunRejectsInvalidConfig) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  ServiceConfig config = BaseConfig();
  config.queue_capacity = 0;
  WalkService service(&g, &app, &p, config);
  const auto result = service.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalkServiceTest, SloSummaryMatchesStats) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  WalkService service(&g, &app, &p, OverloadConfig());
  const auto stats = service.Run().value();
  const core::SloSummary slo = stats.Slo();
  EXPECT_TRUE(slo.Any());
  EXPECT_EQ(slo.offered, stats.offered);
  EXPECT_EQ(slo.completed, stats.completed);
  EXPECT_EQ(slo.shed, stats.Shed());
  EXPECT_DOUBLE_EQ(slo.shed_rate, stats.ShedRate());
  EXPECT_DOUBLE_EQ(slo.violation_rate, stats.ViolationRate());
  EXPECT_GT(slo.queue_delay_p99 + 1.0, slo.queue_delay_p50);
  const std::string section = core::FormatSloSection(slo);
  EXPECT_NE(section.find("goodput"), std::string::npos);
  EXPECT_NE(section.find("shed rate"), std::string::npos);
}

// The service's overload counters in the metrics registry equal the
// run's stats: each shed reason, the retries, and the per-board breaker
// trips summed over the `boards` boards.
void ExpectOverloadCountersMatch(obs::MetricsRegistry* metrics,
                                 const ServiceRunStats& stats,
                                 uint32_t boards) {
  const std::pair<const char*, uint64_t> sheds[] = {
      {"queue_full", stats.shed_queue_full},
      {"breaker_open", stats.shed_breaker},
      {"deadline", stats.shed_deadline}};
  for (const auto& [reason, shed] : sheds) {
    EXPECT_EQ(
        metrics->GetCounter("service.shed", {{"reason", reason}})->value(),
        shed)
        << reason;
  }
  EXPECT_EQ(metrics->GetCounter("service.retries")->value(), stats.retries);
  uint64_t trips = 0;
  for (uint32_t b = 0; b < boards; ++b) {
    trips += metrics
                 ->GetCounter("service.breaker_trips",
                              {{"board", std::to_string(b)}})
                 ->value();
  }
  EXPECT_EQ(trips, stats.breaker_trips);
}

// Overload instrumentation: the shared metrics registry picks up the
// queue histograms and overload counters, and the trace records instant
// events for every shed and degrade decision.
TEST(WalkServiceTest, OverloadPublishesMetricsAndTraceInstants) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  ServiceConfig config = OverloadConfig();
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  config.cluster.board.metrics = &metrics;
  config.cluster.board.trace = &trace;
  WalkService service(&g, &app, &p, config);
  const auto stats = service.Run().value();
  ASSERT_GT(stats.Shed(), 0u);
  ASSERT_GT(stats.degraded, 0u);

  const SampleStats delays =
      metrics.GetHistogram("service.queue_delay_cycles")->Snapshot();
  EXPECT_EQ(delays.count(), stats.queue_delay_cycles.count());
  EXPECT_GT(metrics.GetHistogram("service.queue_depth", {{"board", "0"}})
                ->Snapshot()
                .count(),
            0u);
  EXPECT_EQ(metrics.GetHistogram("service.latency_cycles")
                ->Snapshot()
                .count(),
            stats.completed);
  ExpectOverloadCountersMatch(&metrics, stats, /*boards=*/2);
  uint64_t degrade_counted = 0;
  for (const char* tier : {"shorten", "uniform"}) {
    degrade_counted +=
        metrics.GetCounter("service.degraded", {{"tier", tier}})->value();
  }
  EXPECT_GT(degrade_counted, 0u);

  const std::string trace_json = trace.ToJsonString();
  EXPECT_NE(trace_json.find("\"shed\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"degrade\""), std::string::npos);
}

// The fault-injected sibling: a board death trips breakers, and the
// per-board trip counters still add up to the run's total.
TEST(WalkServiceTest, BoardDeathPublishesBreakerTripsPerBoard) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  ServiceConfig config = OverloadConfig();
  config.retry_budget = 3;
  config.cluster.board.faults.enabled = true;
  config.cluster.board.faults.board_deaths = {{1 << 14, /*board=*/1}};
  obs::MetricsRegistry metrics;
  config.cluster.board.metrics = &metrics;
  WalkService service(&g, &app, &p, config);
  const auto stats = service.Run().value();
  ASSERT_GE(stats.breaker_trips, 1u);
  ASSERT_GT(stats.Shed(), 0u);
  ExpectOverloadCountersMatch(&metrics, stats, /*boards=*/4);
}

}  // namespace
}  // namespace lightrw::service
