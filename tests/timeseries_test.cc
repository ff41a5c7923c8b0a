// Simulated-time telemetry (obs/timeseries.h): window boundary math,
// counter/gauge/histogram scraping, exemplar selection, the incident
// detector's open/close hysteresis, shard merging, and the determinism
// contract — timeseries output is a pure function of the configuration,
// byte-identical for every host thread count, including under injected
// faults and board deaths.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/walk_app.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "service/walk_service.h"

namespace lightrw {
namespace {

using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using graph::CsrGraph;
using obs::DetectSeriesIncidents;
using obs::Incident;
using obs::Json;
using obs::SpanRecorder;
using obs::TimeSeriesConfig;
using obs::TimeSeriesRecorder;
using service::ServiceConfig;
using service::WalkService;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/9);
}

// Parses an export and returns the series object with the given name
// (and optional rendered label match), or nullptr.
const Json* FindSeries(const Json& doc, const std::string& name) {
  const Json* series = doc.Find("series");
  if (series == nullptr) {
    return nullptr;
  }
  for (const Json& entry : series->array()) {
    if (entry.Find("name")->string_value() == name) {
      return &entry;
    }
  }
  return nullptr;
}

// Both exports of one recorder.
struct TsRun {
  std::string json;
  std::string openmetrics;
};

TsRun TsRunOf(const TimeSeriesRecorder& ts) {
  return TsRun{ts.ToJsonString(), ts.ToOpenMetricsText()};
}

// --- window boundaries and per-kind scrape math ----------------------------

TEST(TimeSeriesRecorderTest, WindowBoundariesAndCounterDeltas) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  obs::Counter* steps = rec.GetCounter("steps");

  rec.AdvanceTo(0);
  steps->Increment();
  rec.AdvanceTo(99);  // still inside window 0: no boundary crossed
  EXPECT_EQ(rec.num_windows(), 0u);
  steps->Increment();
  // An event processed exactly at the boundary cycle belongs to the next
  // window: AdvanceTo(100) closes window 0 before this update lands.
  rec.AdvanceTo(100);
  EXPECT_EQ(rec.num_windows(), 1u);
  steps->Increment();
  rec.AdvanceTo(250);  // closes window 1 = [100, 200)
  EXPECT_EQ(rec.num_windows(), 2u);
  rec.Finish(250);  // final partial window [200, 250]
  EXPECT_EQ(rec.num_windows(), 3u);
  EXPECT_EQ(rec.final_cycle(), 250u);

  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = parsed.value();
  EXPECT_EQ(doc.Find("schema")->string_value(), "timeseries.v1");
  EXPECT_EQ(doc.Find("windows")->uint_value(), 3u);
  const Json* ends = doc.Find("window_end");
  ASSERT_EQ(ends->size(), 3u);
  EXPECT_EQ(ends->array()[0].uint_value(), 100u);
  EXPECT_EQ(ends->array()[1].uint_value(), 200u);
  EXPECT_EQ(ends->array()[2].uint_value(), 250u);

  const Json* series = FindSeries(doc, "steps");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Find("kind")->string_value(), "counter");
  const Json* points = series->Find("points");
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ(points->array()[0].Find("delta")->uint_value(), 2u);
  EXPECT_EQ(points->array()[1].Find("delta")->uint_value(), 1u);
  EXPECT_EQ(points->array()[2].Find("delta")->uint_value(), 0u);
  EXPECT_DOUBLE_EQ(
      points->array()[0].Find("rate_per_kcycle")->double_value(), 20.0);
}

TEST(TimeSeriesRecorderTest, FinishCapturesUpdatesAfterLastBoundary) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  obs::Counter* steps = rec.GetCounter("steps");
  rec.AdvanceTo(200);  // closes windows 0 and 1, both empty
  steps->Increment();  // lands at/after cycle 200
  rec.Finish(200);
  ASSERT_EQ(rec.num_windows(), 3u);
  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json* points = FindSeries(parsed.value(), "steps")->Find("points");
  EXPECT_EQ(points->array()[2].Find("delta")->uint_value(), 1u);
  // Finish is idempotent: a second call adds nothing.
  rec.Finish(500);
  EXPECT_EQ(rec.num_windows(), 3u);
}

// A series created after windows closed reads zero (or empty) in them,
// so every series stays dense over the retained window range.
TEST(TimeSeriesRecorderTest, SeriesCreatedLateReadZeroInEarlierWindows) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  rec.AdvanceTo(200);  // closes windows 0 and 1
  rec.GetCounter("steps")->Increment(5);
  rec.GetGauge("depth")->Set(4.0);
  rec.GetHistogram("lat")->Observe(3.0, /*trace=*/1, /*span=*/2);
  rec.Finish(250);
  ASSERT_EQ(rec.num_windows(), 3u);

  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json& doc = parsed.value();
  const Json* steps = FindSeries(doc, "steps")->Find("points");
  const Json* depth = FindSeries(doc, "depth")->Find("points");
  const Json* lat = FindSeries(doc, "lat")->Find("points");
  ASSERT_EQ(steps->size(), 3u);
  ASSERT_EQ(depth->size(), 3u);
  ASSERT_EQ(lat->size(), 3u);
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(steps->array()[w].Find("delta")->uint_value(), 0u);
    EXPECT_DOUBLE_EQ(depth->array()[w].Find("value")->double_value(), 0.0);
    EXPECT_EQ(lat->array()[w].Find("count")->uint_value(), 0u);
    EXPECT_EQ(lat->array()[w].Find("exemplar"), nullptr);
  }
  EXPECT_EQ(steps->array()[2].Find("delta")->uint_value(), 5u);
  EXPECT_DOUBLE_EQ(depth->array()[2].Find("value")->double_value(), 4.0);
  EXPECT_EQ(lat->array()[2].Find("count")->uint_value(), 1u);
}

// One AdvanceTo across many idle windows records exactly what advancing
// boundary by boundary records, with and without ring eviction: right
// after the jump and after the run finishes.
TEST(TimeSeriesRecorderTest, LongJumpMatchesBoundaryByBoundary) {
  TimeSeriesConfig config;
  config.scrape_interval = 10;
  config.max_windows = 4;
  auto record = [&config](uint64_t target, bool jump) {
    std::vector<TsRun> exports;
    TimeSeriesRecorder rec(config);
    obs::Counter* steps = rec.GetCounter("steps");
    obs::Gauge* depth = rec.GetGauge("depth");
    obs::WindowedHistogram* lat = rec.GetHistogram("lat");
    steps->Increment(3);
    depth->Set(2.0);
    lat->Observe(7.0, /*trace=*/1, /*span=*/2);
    rec.AdvanceTo(15);  // closes window 0
    steps->Increment();
    depth->Set(5.0);
    lat->Observe(4.0, /*trace=*/3, /*span=*/4);
    if (jump) {
      rec.AdvanceTo(target);
    } else {
      for (uint64_t c = 20; c <= target; c += config.scrape_interval) {
        rec.AdvanceTo(c);
      }
    }
    exports.push_back(TsRunOf(rec));
    steps->Increment(2);
    lat->Observe(1.0, /*trace=*/5, /*span=*/6);
    rec.Finish(target + 3);
    exports.push_back(TsRunOf(rec));
    return exports;
  };
  // 1000 windows past window 1 (evicting all but the newest), then 3
  // (evicting only older windows).
  for (const uint64_t target : {uint64_t{10015}, uint64_t{45}}) {
    const std::vector<TsRun> stepped = record(target, /*jump=*/false);
    const std::vector<TsRun> jumped = record(target, /*jump=*/true);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(jumped[i].json, stepped[i].json) << target << " " << i;
      EXPECT_EQ(jumped[i].openmetrics, stepped[i].openmetrics)
          << target << " " << i;
    }
    // After the jump the ring holds windows [target/10 - 4, target/10).
    const auto parsed = Json::Parse(jumped[0].json);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->Find("windows")->uint_value(), 4u);
    EXPECT_EQ(parsed->Find("first_window")->uint_value(), target / 10 - 4);
  }
}

// A jump of 10^15 cycles closes only the windows the default ring keeps.
TEST(TimeSeriesRecorderTest, JumpOfTenToTheFifteenCyclesReturns) {
  TimeSeriesRecorder rec;
  rec.GetCounter("steps")->Increment();
  rec.AdvanceTo(1'000'000'000'000'000);
  EXPECT_EQ(rec.num_windows(), 4096u);
  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  // 10^15 / 4096 = 244140625000 windows closed; the ring keeps the last.
  EXPECT_EQ(parsed->Find("first_window")->uint_value(),
            uint64_t{244140625000} - 4096);
}

TEST(TimeSeriesRecorderTest, GaugeLastValueAndHistogramWindowStats) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  obs::Gauge* depth = rec.GetGauge("depth");
  obs::WindowedHistogram* lat = rec.GetHistogram("lat");

  depth->Set(3.0);
  lat->Observe(5.0, /*trace=*/1, /*span=*/11);
  lat->Observe(9.0, /*trace=*/2, /*span=*/22);
  rec.AdvanceTo(100);
  depth->Set(7.0);
  rec.Finish(150);  // window 1 has no histogram samples

  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json& doc = parsed.value();
  const Json* gauge = FindSeries(doc, "depth");
  EXPECT_EQ(gauge->Find("kind")->string_value(), "gauge");
  EXPECT_DOUBLE_EQ(
      gauge->Find("points")->array()[0].Find("value")->double_value(), 3.0);
  EXPECT_DOUBLE_EQ(
      gauge->Find("points")->array()[1].Find("value")->double_value(), 7.0);

  const Json* hist = FindSeries(doc, "lat");
  EXPECT_EQ(hist->Find("kind")->string_value(), "histogram");
  const Json& w0 = hist->Find("points")->array()[0];
  EXPECT_EQ(w0.Find("count")->uint_value(), 2u);
  EXPECT_DOUBLE_EQ(w0.Find("sum")->double_value(), 14.0);
  EXPECT_DOUBLE_EQ(w0.Find("p50")->double_value(), 7.0);
  // Hyndman & Fan type 7 over {5, 9}: 5 + 0.99 * 4.
  EXPECT_NEAR(w0.Find("p99")->double_value(), 8.96, 1e-9);
  const Json* exemplar = w0.Find("exemplar");
  ASSERT_NE(exemplar, nullptr);
  EXPECT_EQ(exemplar->Find("trace")->uint_value(), 2u);
  EXPECT_EQ(exemplar->Find("span")->uint_value(), 22u);
  EXPECT_DOUBLE_EQ(exemplar->Find("value")->double_value(), 9.0);
  // The empty window carries count 0 and no exemplar.
  const Json& w1 = hist->Find("points")->array()[1];
  EXPECT_EQ(w1.Find("count")->uint_value(), 0u);
  EXPECT_EQ(w1.Find("exemplar"), nullptr);
}

TEST(TimeSeriesRecorderTest, ExemplarTiesBreakTowardLowerTraceThenSpan) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  obs::WindowedHistogram* lat = rec.GetHistogram("lat");
  lat->Observe(7.0, /*trace=*/9, /*span=*/1);
  lat->Observe(7.0, /*trace=*/3, /*span=*/8);
  lat->Observe(7.0, /*trace=*/3, /*span=*/4);
  lat->Observe(5.0, /*trace=*/1, /*span=*/1);  // smaller: ignored
  rec.Finish(50);
  const auto parsed = Json::Parse(rec.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json* exemplar = FindSeries(parsed.value(), "lat")
                             ->Find("points")
                             ->array()[0]
                             .Find("exemplar");
  ASSERT_NE(exemplar, nullptr);
  EXPECT_EQ(exemplar->Find("trace")->uint_value(), 3u);
  EXPECT_EQ(exemplar->Find("span")->uint_value(), 4u);
}

TEST(TimeSeriesRecorderTest, OpenMetricsExportCarriesExemplars) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder rec(config);
  rec.GetCounter("svc.shed", {{"reason", "queue_full"}})->Increment(3);
  rec.GetHistogram("lat")->Observe(9.0, 2, 22);
  rec.Finish(100);
  const std::string text = rec.ToOpenMetricsText();
  EXPECT_NE(text.find("# TYPE svc_shed counter"), std::string::npos);
  EXPECT_NE(text.find("svc_shed_total{reason=\"queue_full\"} 3 100"),
            std::string::npos);
  EXPECT_NE(
      text.find("# {trace_id=\"2\",span_id=\"22\"} 9 100"),
      std::string::npos);
  // OpenMetrics text must terminate with the EOF marker.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// --- incident detection ----------------------------------------------------

TEST(DetectSeriesIncidentsTest, SpikeOpensAndClosesWithHysteresis) {
  // alpha .3, open 6, close 3, warmup 4, close after 2 calm windows.
  // Flat at zero, a unit spike at window 5, flat again: the EWMA level
  // decays 0.3 -> 0.21 -> 0.147 -> ..., so |z| = level/0.05 crosses
  // below z_close at window 8 and the second calm window closes at 9.
  const std::vector<double> values = {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0};
  const std::vector<Incident> incidents =
      DetectSeriesIncidents("s", values);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].open_window, 5u);
  EXPECT_EQ(incidents[0].close_window, 9u);
  EXPECT_TRUE(incidents[0].closed);
  EXPECT_DOUBLE_EQ(incidents[0].severity, 20.0);  // 1 / (0.05 * max(0,1))
}

TEST(DetectSeriesIncidentsTest, AnomalousWindowResetsCalmStreak) {
  // A second disturbance at window 8 (z above z_close) interrupts the
  // calm streak: the incident stays open past window 9 (where the first
  // spike alone would have closed) until two consecutive calm windows
  // land at 10 and 11 — the spikes' own residuals widen the MAD scale.
  const std::vector<double> values = {0, 0, 0, 0, 0, 1, 0, 0,
                                      0.5, 0, 0, 0, 0};
  const std::vector<Incident> incidents =
      DetectSeriesIncidents("s", values);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].open_window, 5u);
  EXPECT_EQ(incidents[0].close_window, 11u);
  EXPECT_TRUE(incidents[0].closed);
}

TEST(DetectSeriesIncidentsTest, WarmupGatesEarlySpikes) {
  const std::vector<double> values = {0, 0, 50, 0, 0, 0, 0, 0};
  EXPECT_TRUE(DetectSeriesIncidents("s", values).empty());
}

TEST(DetectSeriesIncidentsTest, UnclosedIncidentReportsLastWindow) {
  const std::vector<double> values = {0, 0, 0, 0, 0, 1};
  const std::vector<Incident> incidents =
      DetectSeriesIncidents("s", values);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].open_window, 5u);
  EXPECT_EQ(incidents[0].close_window, 5u);
  EXPECT_FALSE(incidents[0].closed);
}

// --- shard merging ---------------------------------------------------------

TEST(TimeSeriesRecorderTest, MergeAddsDeltasSumsGaugesAndRepicksExemplars) {
  TimeSeriesConfig config;
  config.scrape_interval = 100;
  TimeSeriesRecorder a(config);
  TimeSeriesRecorder b(config);

  a.GetCounter("steps")->Increment(2);
  a.GetGauge("inflight")->Set(2.0);
  a.GetHistogram("lat")->Observe(7.0, /*trace=*/5, /*span=*/5);
  a.AdvanceTo(100);
  a.GetCounter("steps")->Increment();
  a.Finish(150);  // two windows

  b.GetCounter("steps")->Increment(3);
  b.GetGauge("inflight")->Set(1.0);
  b.GetHistogram("lat")->Observe(7.0, /*trace=*/2, /*span=*/9);
  b.GetCounter("b.only")->Increment(4);
  b.Finish(80);  // one (shorter) window

  a.MergeFrom(&b);
  EXPECT_EQ(a.num_windows(), 2u);
  const auto parsed = Json::Parse(a.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json& doc = parsed.value();
  const Json* ends = doc.Find("window_end");
  EXPECT_EQ(ends->array()[0].uint_value(), 100u);  // max(100, 80)
  EXPECT_EQ(ends->array()[1].uint_value(), 150u);

  const Json* steps = FindSeries(doc, "steps")->Find("points");
  EXPECT_EQ(steps->array()[0].Find("delta")->uint_value(), 5u);
  EXPECT_EQ(steps->array()[1].Find("delta")->uint_value(), 1u);

  // Disjoint shards: the merged gauge is the sum; the shorter shard
  // contributes nothing to windows it never closed.
  const Json* inflight = FindSeries(doc, "inflight")->Find("points");
  EXPECT_DOUBLE_EQ(inflight->array()[0].Find("value")->double_value(), 3.0);
  EXPECT_DOUBLE_EQ(inflight->array()[1].Find("value")->double_value(), 2.0);

  // Equal-value exemplars re-pick toward the lower trace id.
  const Json* exemplar =
      FindSeries(doc, "lat")->Find("points")->array()[0].Find("exemplar");
  EXPECT_EQ(exemplar->Find("trace")->uint_value(), 2u);

  // A series only one shard created is padded to the full window range.
  const Json* only = FindSeries(doc, "b.only")->Find("points");
  ASSERT_EQ(only->size(), 2u);
  EXPECT_EQ(only->array()[0].Find("delta")->uint_value(), 4u);
  EXPECT_EQ(only->array()[1].Find("delta")->uint_value(), 0u);
}

// Shards whose rings evicted different numbers of windows merge by
// global window index, from the latest first window on.
TEST(TimeSeriesRecorderTest, MergeAlignsShardsWithDifferentFirstWindows) {
  TimeSeriesConfig config;
  config.scrape_interval = 10;
  config.max_windows = 4;
  auto run = [&config](uint64_t per_window, uint64_t windows) {
    auto ts = std::make_unique<TimeSeriesRecorder>(config);
    for (uint64_t w = 1; w <= windows; ++w) {
      ts->GetCounter("steps")->Increment(per_window);
      ts->AdvanceTo(w * config.scrape_interval);
    }
    return ts;
  };
  // Rings [6, 10) and [3, 7): the merge keeps [6, 10), where both
  // shards contribute to window 6 only.
  const auto a = run(1, 10);
  const auto b = run(100, 7);
  std::string merged_json;
  for (const bool a_first : {true, false}) {
    TimeSeriesRecorder merged(config);
    merged.MergeFrom(a_first ? a.get() : b.get());
    merged.MergeFrom(a_first ? b.get() : a.get());
    EXPECT_EQ(merged.num_windows(), 4u);
    const auto parsed = Json::Parse(merged.ToJsonString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->Find("first_window")->uint_value(), 6u);
    const Json* ends = parsed->Find("window_end");
    ASSERT_EQ(ends->size(), 4u);
    EXPECT_EQ(ends->array()[0].uint_value(), 70u);
    EXPECT_EQ(ends->array()[3].uint_value(), 100u);
    const Json* steps = FindSeries(*parsed, "steps")->Find("points");
    ASSERT_EQ(steps->size(), 4u);
    const uint64_t want[] = {101, 1, 1, 1};
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(steps->array()[i].Find("w")->uint_value(), 6 + i);
      EXPECT_EQ(steps->array()[i].Find("delta")->uint_value(), want[i]);
    }
    if (a_first) {
      merged_json = merged.ToJsonString();
    } else {
      EXPECT_EQ(merged.ToJsonString(), merged_json);
    }
  }
}

// --- end-to-end determinism ------------------------------------------------

TsRun RunServiceWithTimeSeries(const CsrGraph& g, const apps::WalkApp& app,
                               const Partition& partition, uint32_t shards,
                               uint32_t threads,
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

  TimeSeriesConfig ts_config;
  ts_config.scrape_interval = 1024;
  TimeSeriesRecorder ts(ts_config);
  config.cluster.board.timeseries = &ts;

  WalkService walk_service(&g, &app, &partition, config);
  EXPECT_TRUE(walk_service.Run().ok());
  return TsRunOf(ts);
}

TEST(TimeSeriesDeterminismTest, ShardedServiceByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const TsRun serial = RunServiceWithTimeSeries(g, app, partition,
                                                /*shards=*/4,
                                                /*threads=*/1, {});
  const TsRun parallel = RunServiceWithTimeSeries(g, app, partition,
                                                  /*shards=*/4,
                                                  /*threads=*/4, {});
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.openmetrics, parallel.openmetrics);
  // The scrape actually saw service-level traffic.
  EXPECT_NE(serial.json.find("svc.completed"), std::string::npos);
  EXPECT_NE(serial.json.find("dist.steps"), std::string::npos);
}

TEST(TimeSeriesDeterminismTest,
     FaultInjectedServiceByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.dram_uncorrectable_rate = 1e-2;
  faults.max_dram_retries = 0;
  const TsRun serial = RunServiceWithTimeSeries(g, app, partition,
                                                /*shards=*/1,
                                                /*threads=*/1, faults);
  const TsRun parallel = RunServiceWithTimeSeries(g, app, partition,
                                                  /*shards=*/1,
                                                  /*threads=*/4, faults);
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.openmetrics, parallel.openmetrics);
  EXPECT_NE(serial.json.find("dist.walks.failed"), std::string::npos);
}

TEST(TimeSeriesDeterminismTest, CycleEngineByteIdenticalAcrossThreads) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  auto run = [&](uint32_t threads) {
    core::AcceleratorConfig config;
    config.seed = 17;
    config.num_instances = 4;
    config.num_threads = threads;
    TimeSeriesConfig ts_config;
    ts_config.scrape_interval = 1024;
    TimeSeriesRecorder ts(ts_config);
    config.timeseries = &ts;
    const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                                 /*seed=*/5, /*limit=*/600);
    core::CycleEngine engine(&g, &app, config);
    engine.Run(queries);
    return ts.ToJsonString();
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("accel.steps"), std::string::npos);
}

// An instance with no queries adds no series: four instances, three
// queries, so instance 3 stays out of the export.
TEST(TimeSeriesDeterminismTest, IdleCycleEngineInstanceAddsNoSeries) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  for (const uint32_t threads : {1u, 4u}) {
    core::AcceleratorConfig config;
    config.num_instances = 4;
    config.num_threads = threads;
    TimeSeriesRecorder ts;
    config.timeseries = &ts;
    const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                                 /*seed=*/5, /*limit=*/3);
    core::CycleEngine(&g, &app, config).Run(queries);
    const auto parsed = Json::Parse(ts.ToJsonString());
    ASSERT_TRUE(parsed.ok());
    std::set<std::string> instances;
    for (const Json& series : parsed->Find("series")->array()) {
      const Json* labels = series.Find("labels");
      if (labels != nullptr && labels->Find("instance") != nullptr) {
        instances.insert(labels->Find("instance")->string_value());
      }
    }
    EXPECT_EQ(instances, (std::set<std::string>{"0", "1", "2"})) << threads;
  }
}

// The sharded runs whose merge used to abort once the 64-window ring
// evicted: four CycleEngine instances at an 8-cycle scrape, and a
// four-shard service on four replicated boards. Exports are
// byte-identical at 1 and 4 threads and keep the newest 64 windows.
TsRun RunEvictingCycleEngine(uint32_t threads) {
  graph::RmatOptions rmat;
  rmat.scale = 10;
  const CsrGraph g = graph::GenerateRmat(rmat);
  const apps::StaticWalkApp app;
  core::AcceleratorConfig config;
  config.num_threads = threads;
  TimeSeriesConfig ts_config;
  ts_config.scrape_interval = 8;
  ts_config.max_windows = 64;
  TimeSeriesRecorder ts(ts_config);
  config.timeseries = &ts;
  const auto queries = apps::MakeVertexQueries(g, /*length=*/40,
                                               /*seed=*/5, /*limit=*/512);
  core::CycleEngine(&g, &app, config).Run(queries);
  return TsRunOf(ts);
}

TsRun RunEvictingShardedService(uint32_t threads) {
  graph::RmatOptions rmat;
  rmat.scale = 12;
  const CsrGraph g = graph::GenerateRmat(rmat);
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  ServiceConfig config;
  config.cluster.board.num_instances = 1;
  config.cluster.replicate_graph = true;
  config.cluster.num_threads = threads;
  config.admission_shards = 4;
  config.arrivals.num_queries = 2048;
  config.arrivals.walk_length = 16;
  config.arrivals.rate_per_kcycle = 4.0;
  config.arrivals.deadline_cycles = 16384;
  TimeSeriesConfig ts_config;
  ts_config.max_windows = 64;
  TimeSeriesRecorder ts(ts_config);
  config.cluster.board.timeseries = &ts;
  EXPECT_TRUE(WalkService(&g, &app, &partition, config).Run().ok());
  return TsRunOf(ts);
}

void ExpectEvictedAndByteIdentical(const TsRun& serial, const TsRun& parallel,
                                   const std::string& series) {
  EXPECT_EQ(serial.json, parallel.json);
  EXPECT_EQ(serial.openmetrics, parallel.openmetrics);
  const auto parsed = Json::Parse(serial.json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(parsed->Find("first_window")->uint_value(), 0u);
  EXPECT_EQ(parsed->Find("windows")->uint_value(), 64u);
  EXPECT_NE(FindSeries(*parsed, series), nullptr);
}

TEST(TimeSeriesDeterminismTest, EvictingCycleEngineShardsMerge) {
  ExpectEvictedAndByteIdentical(RunEvictingCycleEngine(1),
                                RunEvictingCycleEngine(4), "accel.steps");
}

TEST(TimeSeriesDeterminismTest, EvictingServiceShardsMerge) {
  ExpectEvictedAndByteIdentical(RunEvictingShardedService(1),
                                RunEvictingShardedService(4),
                                "svc.completed");
}

// --- board-death incident end to end ---------------------------------------

// A scripted board death must surface as a detected incident whose open
// window overlaps the death cycle, close after the spare rebuild
// recovers the cluster, and carry latency exemplars that resolve to
// spans present in the span export.
TEST(TimeSeriesIncidentTest, BoardDeathOpensClosesAndExemplarsResolve) {
  const CsrGraph g = TestGraph();
  const apps::StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);

  distributed::DistributedConfig config;
  config.board.num_instances = 1;
  config.board.seed = 17;
  config.replicate_graph = true;
  config.num_spare_boards = 1;
  config.rebuild_bytes_per_cycle = 256.0;
  config.board.faults.enabled = true;
  config.board.faults.seed = 3;
  config.board.faults.checkpoint_interval_cycles = 1 << 12;
  config.board.faults.board_deaths = {{20000, /*board=*/1}};

  TimeSeriesConfig ts_config;
  ts_config.scrape_interval = 1024;
  TimeSeriesRecorder ts(ts_config);
  config.board.timeseries = &ts;
  SpanRecorder spans;
  config.board.spans = &spans;

  const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                               /*seed=*/5, /*limit=*/1500);
  distributed::DistributedEngine engine(&g, &app, &partition, config);
  ASSERT_TRUE(engine.Run(queries).ok());

  const uint64_t death = config.board.faults.board_deaths[0].cycle;
  const uint64_t interval = ts_config.scrape_interval;
  bool found = false;
  for (const Incident& incident : ts.DetectIncidents()) {
    if (incident.series != "dist.membership.deaths") {
      continue;
    }
    found = true;
    // The incident's opening window covers the death cycle.
    EXPECT_GE(death, incident.open_window * interval);
    EXPECT_LT(death, (incident.open_window + 1) * interval);
    // The cluster recovered (spare rebuilt the share), so the detector
    // closed the incident before the run ended.
    EXPECT_TRUE(incident.closed);
    EXPECT_GT(incident.close_window, incident.open_window);
    EXPECT_GE(incident.severity, obs::kAnomalyZOpen);
    // The membership events the engine annotated ride along.
    ASSERT_FALSE(incident.annotations.empty());
    EXPECT_NE(incident.annotations[0].find("board_death@20000"),
              std::string::npos);
  }
  EXPECT_TRUE(found) << "no incident detected on dist.membership.deaths";

  // Every walk-latency exemplar must resolve to a (trace, span) pair
  // present in the span export — the spike links back to its span tree.
  std::set<std::pair<uint64_t, uint64_t>> exported;
  for (const obs::Span& span : spans.Spans()) {
    exported.emplace(span.trace, span.id);
  }
  const auto parsed = Json::Parse(ts.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json* lat = FindSeries(parsed.value(), "dist.walk_latency_cycles");
  ASSERT_NE(lat, nullptr);
  size_t exemplars = 0;
  for (const Json& point : lat->Find("points")->array()) {
    const Json* exemplar = point.Find("exemplar");
    if (exemplar == nullptr) {
      continue;
    }
    ++exemplars;
    const std::pair<uint64_t, uint64_t> id = {
        exemplar->Find("trace")->uint_value(),
        exemplar->Find("span")->uint_value()};
    EXPECT_TRUE(exported.count(id))
        << "exemplar (" << id.first << ", " << id.second
        << ") missing from the span export";
  }
  EXPECT_GT(exemplars, 0u);
}

}  // namespace
}  // namespace lightrw
