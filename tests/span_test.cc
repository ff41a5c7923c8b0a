// Per-query span tracing (obs/span.h), the critical-path analyzer and
// burn-rate monitor (obs/critical_path.h), and the determinism contract:
// span output is a pure function of the configuration — byte-identical
// for every host thread count, including under injected faults, because
// span ids derive from walker tickets and the export sorts canonically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/walk_app.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "obs/critical_path.h"
#include "obs/span.h"
#include "service/walk_service.h"

namespace lightrw {
namespace {

using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using graph::CsrGraph;
using obs::AnalyzeCriticalPaths;
using obs::AttributionReport;
using obs::BurnAlert;
using obs::BurnRateConfig;
using obs::ComputeBurnAlerts;
using obs::DeriveSpanId;
using obs::Span;
using obs::SpanConfig;
using obs::SpanMode;
using obs::SpanRecorder;
using obs::TraceSummary;
using service::QueryOutcome;
using service::ServiceConfig;
using service::WalkService;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/9);
}

// --- span id derivation ----------------------------------------------------

TEST(DeriveSpanIdTest, DeterministicNonzeroAndDistinct) {
  EXPECT_EQ(DeriveSpanId(3, 7), DeriveSpanId(3, 7));
  std::vector<uint64_t> seen;
  for (uint64_t trace = 0; trace < 32; ++trace) {
    for (uint64_t seq = 0; seq < 32; ++seq) {
      const uint64_t id = DeriveSpanId(trace, seq);
      EXPECT_NE(id, 0u);
      seen.push_back(id);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "span ids must be distinct across (trace, seq) pairs";
}

// --- recorder basics -------------------------------------------------------

TEST(SpanRecorderTest, RecordsParentChildTree) {
  SpanRecorder rec;
  const uint64_t root = rec.Begin(5, 0, "query", "service", -1, 100);
  const uint64_t child = rec.Begin(5, root, "queue", "service", 2, 100);
  ASSERT_NE(root, 0u);
  ASSERT_NE(child, 0u);
  rec.Attr(5, child, "depth", 3);
  rec.Event(5, child, "note", 120);
  rec.End(5, child, 150);
  rec.End(5, root, 200);
  rec.CloseTrace(5, 100, 200, /*breached=*/false, "completed");

  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, root);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[1].id, child);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].seq, 1u);
  EXPECT_EQ(spans[1].start, 100u);
  EXPECT_EQ(spans[1].end, 150u);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].second, 3u);
  ASSERT_EQ(spans[1].events.size(), 1u);
  EXPECT_EQ(spans[1].events[0].at, 120u);

  const std::vector<TraceSummary> summaries = rec.Summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].trace, 5u);
  EXPECT_FALSE(summaries[0].breached);
  EXPECT_STREQ(summaries[0].outcome, "completed");
}

TEST(SpanRecorderTest, BreachedModeIsAFlightRecorder) {
  SpanConfig config;
  config.mode = SpanMode::kBreached;
  SpanRecorder rec(config);
  for (uint64_t trace = 0; trace < 10; ++trace) {
    const uint64_t s = rec.Begin(trace, 0, "query", "service", -1, trace);
    rec.End(trace, s, trace + 10);
    // Traces 3 and 7 breach; only their spans survive.
    const bool breached = trace == 3 || trace == 7;
    rec.CloseTrace(trace, trace, trace + 10, breached,
                   breached ? "deadline_missed" : "completed");
  }
  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(rec.num_spans(), 2u);
  EXPECT_EQ(spans[0].trace, 3u);
  EXPECT_EQ(spans[1].trace, 7u);
  // Summaries are kept for every closed trace regardless of mode (the
  // burn-rate monitor needs the full terminal stream).
  EXPECT_EQ(rec.Summaries().size(), 10u);
  EXPECT_EQ(rec.traces_closed(), 10u);
  EXPECT_EQ(rec.num_retained_traces(), 2u);
}

TEST(SpanRecorderTest, RetainedRingEvictsOldestAndCounts) {
  SpanConfig config;
  config.max_traces = 3;
  SpanRecorder rec(config);
  for (uint64_t trace = 0; trace < 5; ++trace) {
    rec.Begin(trace, 0, "query", "service", -1, trace);
    rec.CloseTrace(trace, trace, trace + 1, /*breached=*/true, "x");
  }
  EXPECT_EQ(rec.num_retained_traces(), 3u);
  EXPECT_EQ(rec.traces_evicted(), 2u);
  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.front().trace, 2u);  // 0 and 1 evicted
}

TEST(SpanRecorderTest, PerTraceSpanCapDropsAndCounts) {
  SpanConfig config;
  config.max_spans_per_trace = 2;
  SpanRecorder rec(config);
  EXPECT_NE(rec.Begin(1, 0, "a", "t", -1, 0), 0u);
  EXPECT_NE(rec.Begin(1, 0, "b", "t", -1, 0), 0u);
  EXPECT_EQ(rec.Begin(1, 0, "c", "t", -1, 0), 0u);  // dropped
  EXPECT_EQ(rec.spans_dropped(), 1u);
  // Id 0 is ignored everywhere: these must not crash or misattribute.
  rec.Attr(1, 0, "k", 1);
  rec.Event(1, 0, "e", 1);
  rec.End(1, 0, 9);
  EXPECT_EQ(rec.Spans().size(), 2u);
  EXPECT_EQ(rec.num_spans(), 2u);
}

TEST(SpanRecorderTest, RepeatedAttrKeyOverwritesInPlace) {
  SpanRecorder rec;
  const uint64_t root = rec.Begin(1, 0, "query", "service", -1, 0);
  const uint64_t walk = rec.Begin(1, root, "walk", "cluster", 0, 10);
  rec.Attr(1, walk, "sampler", 1);
  rec.Attr(1, walk, "dram_fetch", 5);
  const std::string key = "sampler";  // equal text, another pointer
  rec.Attr(1, walk, key.c_str(), 2);
  rec.End(1, walk, 20);
  rec.End(1, root, 100);
  rec.CloseTrace(1, 0, 100, /*breached=*/true, "deadline_missed");

  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[1].attrs.size(), 2u);
  EXPECT_STREQ(spans[1].attrs[0].first, "sampler");
  EXPECT_EQ(spans[1].attrs[0].second, 2u);
  EXPECT_NE(rec.ToJsonString(-1).find(
                "\"attrs\":{\"sampler\":2,\"dram_fetch\":5}"),
            std::string::npos);
  const AttributionReport report = AnalyzeCriticalPaths(rec);
  ASSERT_EQ(report.breached.size(), 1u);
  EXPECT_EQ(report.breached[0].cycles[obs::kCompSampler], 2u);
}

TEST(SpanRecorderTest, MergeOrderIsInvisibleInExport) {
  // Two shards with disjoint traces, merged in both orders: the exported
  // documents must be identical (canonical (trace, seq) sort).
  auto fill = [](SpanRecorder* rec, uint64_t trace) {
    const uint64_t root =
        rec->Begin(trace, 0, "query", "service", -1, trace * 10);
    rec->End(trace, root, trace * 10 + 5);
    rec->CloseTrace(trace, trace * 10, trace * 10 + 5, trace % 2 == 1,
                    "done");
  };
  SpanRecorder a1, a2, b1, b2;
  fill(&a1, 0);
  fill(&a1, 2);
  fill(&a2, 1);
  fill(&b1, 0);
  fill(&b1, 2);
  fill(&b2, 1);
  SpanRecorder merged_ab, merged_ba;
  merged_ab.MergeFrom(&a1);
  merged_ab.MergeFrom(&a2);
  merged_ba.MergeFrom(&b2);
  merged_ba.MergeFrom(&b1);
  EXPECT_EQ(merged_ab.ToJsonString(), merged_ba.ToJsonString());
  EXPECT_EQ(merged_ab.traces_closed(), 3u);
}

// --- critical-path analyzer ------------------------------------------------

TEST(CriticalPathTest, AttributesComponentsAndNamesDominant) {
  SpanRecorder rec;
  const uint64_t root = rec.Begin(0, 0, "query", "service", -1, 0);
  const uint64_t queue = rec.Begin(0, root, "queue", "service", 1, 0);
  rec.End(0, queue, 40);
  const uint64_t walk = rec.Begin(0, root, "walk", "exec", 1, 40);
  rec.Attr(0, walk, "dram_info", 10);
  rec.Attr(0, walk, "dram_fetch", 100);
  rec.Attr(0, walk, "sampler", 5);
  rec.Attr(0, walk, "pipeline", 20);
  rec.Attr(0, walk, "network", 0);
  rec.Attr(0, walk, "recovery", 0);
  rec.End(0, walk, 200);
  rec.End(0, root, 200);
  rec.CloseTrace(0, 0, 200, /*breached=*/true, "deadline_missed");

  const AttributionReport report = AnalyzeCriticalPaths(rec);
  EXPECT_EQ(report.queries_analyzed, 1u);
  EXPECT_EQ(report.breached_count, 1u);
  ASSERT_EQ(report.breached.size(), 1u);
  const auto& qa = report.breached[0];
  EXPECT_EQ(qa.total_cycles, 200u);
  EXPECT_EQ(qa.cycles[obs::kCompQueue], 40u);
  EXPECT_EQ(qa.cycles[obs::kCompDramInfo], 10u);
  EXPECT_EQ(qa.cycles[obs::kCompDramFetch], 100u);
  EXPECT_EQ(qa.cycles[obs::kCompSampler], 5u);
  EXPECT_EQ(qa.cycles[obs::kCompPipeline], 20u);
  // other = 200 - (40 + 10 + 100 + 5 + 20) = 25.
  EXPECT_EQ(qa.cycles[obs::kCompOther], 25u);
  EXPECT_STREQ(qa.DominantName(), "dram_fetch");
  EXPECT_EQ(report.dominant_counts[obs::kCompDramFetch], 1u);
}

TEST(CriticalPathTest, TiesBreakTowardEarlierLifecycleStage) {
  SpanRecorder rec;
  const uint64_t root = rec.Begin(0, 0, "query", "service", -1, 0);
  const uint64_t queue = rec.Begin(0, root, "queue", "service", 1, 0);
  rec.End(0, queue, 50);
  const uint64_t backoff = rec.Begin(0, root, "backoff", "service", 1, 50);
  rec.End(0, backoff, 100);
  rec.End(0, root, 100);
  rec.CloseTrace(0, 0, 100, /*breached=*/true, "queue_full");
  const AttributionReport report = AnalyzeCriticalPaths(rec);
  ASSERT_EQ(report.breached.size(), 1u);
  // queue_wait == backoff == 50: queue_wait wins (earlier stage).
  EXPECT_STREQ(report.breached[0].DominantName(), "queue_wait");
}

TEST(CriticalPathTest, EveryBreachedQueryNamesADominantComponent) {
  // Even a degenerate breached trace (zero-duration, no cycles anywhere)
  // must name a component: the all-zero argmax resolves to the earliest
  // lifecycle stage via the documented tie-break.
  SpanRecorder rec;
  const uint64_t root = rec.Begin(9, 0, "query", "service", -1, 7);
  rec.End(9, root, 7);
  rec.CloseTrace(9, 7, 7, /*breached=*/true, "queue_full");
  const AttributionReport report = AnalyzeCriticalPaths(rec);
  ASSERT_EQ(report.breached.size(), 1u);
  EXPECT_LT(report.breached[0].dominant, obs::kNumComponents);
  EXPECT_STREQ(report.breached[0].DominantName(), "queue_wait");
}

// --- burn-rate monitor -----------------------------------------------------

TEST(BurnRateTest, ValidatesConfig) {
  BurnRateConfig config;
  EXPECT_TRUE(obs::ValidateBurnRateConfig(config).ok());
  config.budget = 0.0;
  EXPECT_FALSE(obs::ValidateBurnRateConfig(config).ok());
  config.budget = 0.01;
  config.threshold = 0.0;
  EXPECT_FALSE(obs::ValidateBurnRateConfig(config).ok());
  config.threshold = 2.0;
  config.fast_window_cycles = 1 << 20;  // fast > slow
  EXPECT_FALSE(obs::ValidateBurnRateConfig(config).ok());
}

std::vector<TraceSummary> MakeSummaries(
    const std::vector<std::pair<uint64_t, bool>>& events) {
  std::vector<TraceSummary> out;
  for (size_t i = 0; i < events.size(); ++i) {
    TraceSummary s;
    s.trace = i;
    s.start = events[i].first;
    s.end = events[i].first;
    s.breached = events[i].second;
    s.outcome = events[i].second ? "deadline_missed" : "completed";
    out.push_back(s);
  }
  return out;
}

TEST(BurnRateTest, QuietStreamNeverFires) {
  BurnRateConfig config;
  config.budget = 0.5;  // very forgiving
  std::vector<std::pair<uint64_t, bool>> events;
  for (uint64_t t = 0; t < 100; ++t) {
    events.emplace_back(t * 100, t % 10 == 0);  // 10% breach, 20% budget
  }
  EXPECT_TRUE(ComputeBurnAlerts(MakeSummaries(events), config).empty());
}

TEST(BurnRateTest, BreachBurstFiresThenClears) {
  BurnRateConfig config;
  config.budget = 0.1;
  config.threshold = 2.0;
  config.fast_window_cycles = 1000;
  config.slow_window_cycles = 4000;
  std::vector<std::pair<uint64_t, bool>> events;
  // A clean lead-in, a dense breach burst, then a long clean tail that
  // flushes both windows.
  for (uint64_t t = 0; t < 20; ++t) {
    events.emplace_back(t * 50, false);
  }
  for (uint64_t t = 0; t < 30; ++t) {
    events.emplace_back(1000 + t * 10, true);
  }
  for (uint64_t t = 0; t < 200; ++t) {
    events.emplace_back(1300 + t * 50, false);
  }
  const std::vector<BurnAlert> alerts =
      ComputeBurnAlerts(MakeSummaries(events), config);
  ASSERT_GE(alerts.size(), 2u);
  EXPECT_TRUE(alerts.front().firing);
  EXPECT_GT(alerts.front().fast_burn, config.threshold);
  EXPECT_GT(alerts.front().slow_burn, config.threshold);
  EXPECT_FALSE(alerts.back().firing);
  // Transitions alternate fire/clear.
  for (size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_NE(alerts[i].firing, alerts[i - 1].firing);
    EXPECT_GE(alerts[i].cycle, alerts[i - 1].cycle);
  }
}

TEST(BurnRateTest, InputOrderDoesNotMatter) {
  BurnRateConfig config;
  config.budget = 0.05;
  std::vector<std::pair<uint64_t, bool>> events;
  for (uint64_t t = 0; t < 50; ++t) {
    events.emplace_back(t * 37, t % 3 == 0);
  }
  std::vector<TraceSummary> forward = MakeSummaries(events);
  std::vector<TraceSummary> reversed(forward.rbegin(), forward.rend());
  const auto a = ComputeBurnAlerts(forward, config);
  const auto b = ComputeBurnAlerts(reversed, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].firing, b[i].firing);
  }
}

TEST(FormatLatencyAttributionTest, EmptyWhenNothingAnalyzed) {
  EXPECT_EQ(obs::FormatLatencyAttributionSection({}, {}), "");
}

// --- end-to-end determinism ------------------------------------------------

struct SpanRun {
  std::string json;
  AttributionReport report;
  std::vector<QueryOutcome> outcomes;
  uint64_t traces_closed = 0;
};

// Service run with spans attached; `shards` > 1 exercises the sharded
// merge (requires no faults), fault injection exercises retry/failure
// spans (requires shards == 1).
SpanRun RunServiceWithSpans(const CsrGraph& g, const apps::WalkApp& app,
                            const Partition& partition, uint32_t shards,
                            uint32_t threads, SpanMode mode,
                            const reliability::FaultConfig& faults) {
  ServiceConfig config;
  config.cluster.board.num_instances = 1;
  config.cluster.board.seed = 13;
  config.cluster.board.faults = faults;
  config.cluster.replicate_graph = true;
  config.cluster.num_threads = threads;
  config.cluster.inflight_walkers_per_board = 2;
  config.admission_shards = shards;
  config.arrivals.seed = 7;
  config.arrivals.num_queries = 384;
  config.arrivals.walk_length = 16;
  config.arrivals.rate_per_kcycle = 32.0;
  config.arrivals.deadline_cycles = 1 << 12;
  config.queue_capacity = 4;
  config.retry_budget = 1;
  config.retry_backoff_cycles = 256;

  SpanConfig span_config;
  span_config.mode = mode;
  SpanRecorder spans(span_config);
  config.cluster.board.spans = &spans;

  WalkService walk_service(&g, &app, &partition, config);
  SpanRun run;
  EXPECT_TRUE(walk_service.Run().ok());
  run.json = spans.ToJsonString();
  run.report = AnalyzeCriticalPaths(spans);
  run.outcomes = walk_service.outcomes();
  run.traces_closed = spans.traces_closed();
  return run;
}

TEST(SpanDeterminismTest, ShardedServiceByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const SpanRun serial = RunServiceWithSpans(
      g, app, partition, /*shards=*/4, /*threads=*/1, SpanMode::kAll, {});
  EXPECT_EQ(serial.traces_closed, 384u);
  EXPECT_GT(serial.report.breached_count, 0u);
  const SpanRun parallel = RunServiceWithSpans(
      g, app, partition, /*shards=*/4, /*threads=*/4, SpanMode::kAll, {});
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(SpanDeterminismTest, FaultInjectedServiceByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.dram_uncorrectable_rate = 1e-2;
  faults.max_dram_retries = 0;  // first uncorrectable hit fails the access
  // Faults require a single admission shard; the thread count must still
  // be invisible in the span output.
  const SpanRun serial = RunServiceWithSpans(
      g, app, partition, /*shards=*/1, /*threads=*/1, SpanMode::kAll,
      faults);
  const SpanRun parallel = RunServiceWithSpans(
      g, app, partition, /*shards=*/1, /*threads=*/4, SpanMode::kAll,
      faults);
  EXPECT_EQ(serial.json, parallel.json);
  // The fault schedule must actually have reached the span stream:
  // uncorrectable ECC hits annotate walk spans, and the surfaced walk
  // failures re-admit through retry backoff spans.
  EXPECT_NE(serial.json.find("dram_uncorrectable"), std::string::npos)
      << "fault rate too low to exercise fault-event spans";
  EXPECT_NE(serial.json.find("\"backoff\""), std::string::npos)
      << "no retry backoff span recorded under injected walk failures";
}

TEST(SpanDeterminismTest, BreachReportNamesDominantForEveryBreach) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.dram_uncorrectable_rate = 1e-2;
  faults.max_dram_retries = 0;  // first uncorrectable hit fails the access
  const SpanRun run = RunServiceWithSpans(
      g, app, partition, /*shards=*/1, /*threads=*/1, SpanMode::kAll,
      faults);
  EXPECT_GT(run.report.breached_count, 0u);
  EXPECT_EQ(run.report.breached.size(), run.report.breached_count);
  for (const auto& qa : run.report.breached) {
    EXPECT_TRUE(qa.breached);
    EXPECT_LT(qa.dominant, obs::kNumComponents);
    EXPECT_STRNE(qa.DominantName(), "unknown");
    EXPECT_STRNE(qa.outcome.c_str(), "");
  }
}

TEST(SpanDeterminismTest, FlightRecorderKeepsOnlyBreachedTraces) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const SpanRun all = RunServiceWithSpans(
      g, app, partition, /*shards=*/4, /*threads=*/1, SpanMode::kAll, {});
  const SpanRun breached = RunServiceWithSpans(
      g, app, partition, /*shards=*/4, /*threads=*/1, SpanMode::kBreached,
      {});
  // Same run, same breach set — but the flight recorder analyzed only
  // the breached traces.
  EXPECT_EQ(all.report.breached_count, breached.report.breached_count);
  EXPECT_EQ(breached.report.queries_analyzed,
            breached.report.breached_count);
  EXPECT_GT(all.report.queries_analyzed, breached.report.queries_analyzed);
  // And the per-breach attribution is identical in both modes.
  ASSERT_EQ(all.report.breached.size(), breached.report.breached.size());
  for (size_t i = 0; i < all.report.breached.size(); ++i) {
    EXPECT_EQ(all.report.breached[i].trace, breached.report.breached[i].trace);
    EXPECT_EQ(all.report.breached[i].dominant,
              breached.report.breached[i].dominant);
  }
}

TEST(SpanDeterminismTest, BatchDistributedByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  auto run = [&](uint32_t threads) {
    distributed::DistributedConfig config;
    config.board.num_instances = 1;
    config.board.seed = 17;
    config.replicate_graph = true;
    config.num_threads = threads;
    SpanRecorder spans;
    config.board.spans = &spans;
    const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                                 /*seed=*/5, /*limit=*/600);
    distributed::DistributedEngine engine(&g, &app, &partition, config);
    EXPECT_TRUE(engine.Run(queries).ok());
    return spans.ToJsonString();
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"walk\""), std::string::npos);
}

}  // namespace
}  // namespace lightrw
