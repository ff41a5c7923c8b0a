// Unit tests for the observability library: the Json document type and
// its parser, the streaming JsonWriter, the metrics registry and its
// expositions, and the trace recorder.

#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lightrw::obs {
namespace {

// ---------------------------------------------------------------------------
// Json

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(int64_t{-42}).Dump(), "-42");
  EXPECT_EQ(Json(uint64_t{18446744073709551615ull}).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json(0.5).Dump(), "0.5");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\n\t\x01").Dump(),
            "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndSetReplaces) {
  Json obj = Json::MakeObject();
  obj.Set("zebra", 1);
  obj.Set("apple", 2);
  obj.Set("zebra", 3);  // replaces in place, keeps position
  EXPECT_EQ(obj.Dump(), "{\"zebra\":3,\"apple\":2}");
  ASSERT_NE(obj.Find("apple"), nullptr);
  EXPECT_EQ(obj.Find("apple")->int_value(), 2);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonTest, ArrayAppendAndSize) {
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append("two");
  arr.Append(Json::MakeObject());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.Dump(), "[1,\"two\",{}]");
}

TEST(JsonTest, PrettyPrint) {
  Json obj = Json::MakeObject();
  obj.Set("a", 1);
  EXPECT_EQ(obj.Dump(2), "{\n  \"a\": 1\n}");
}

TEST(JsonTest, ParseRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,true,null,\"x\\n\"],\"b\":{\"c\":-7}}";
  const auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Dump(), text);
}

TEST(JsonTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("'single'").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, NumericKindsRoundTripExactly) {
  const auto parsed = Json::Parse("[9007199254740993,-4,1.25]");
  ASSERT_TRUE(parsed.ok());
  // 2^53+1 is not representable as a double; it must survive as an
  // integer kind.
  EXPECT_EQ(parsed.value().array()[0].uint_value(), 9007199254740993ull);
  EXPECT_EQ(parsed.value().array()[1].int_value(), -4);
  EXPECT_DOUBLE_EQ(parsed.value().array()[2].double_value(), 1.25);
}

TEST(JsonTest, ParseRejectsNonRfcNumbersAndRawControlBytes) {
  for (const char* text :
       {"007", "[01]", "-01", "00", ".5", "[.5]", "-.5", "5.", "1.e3", "1e",
        "1e+", "-", "+1", "[1,-]"}) {
    EXPECT_FALSE(Json::Parse(text).ok()) << text;
  }
  EXPECT_FALSE(Json::Parse("\"esc \x1b byte\"").ok());
  EXPECT_FALSE(Json::Parse("\"raw\ttab\"").ok());
  EXPECT_FALSE(Json::Parse(std::string("\"\0\"", 3)).ok());
  EXPECT_FALSE(Json::Parse("{\"k\x01\":1}").ok());

  for (const char* text : {"0", "-0", "10", "0.5", "-0.5e-3", "1E5", "1e+21",
                           "[0,1]", "\"\\u001b\""}) {
    EXPECT_TRUE(Json::Parse(text).ok()) << text;
  }
  EXPECT_EQ(Json::Parse("-0").value().int_value(), 0);
  EXPECT_DOUBLE_EQ(Json::Parse("1e+21").value().double_value(), 1e21);
  EXPECT_EQ(Json::Parse("\"\\u001b\"").value().string_value(), "\x1b");
}

// ---------------------------------------------------------------------------
// JsonWriter

// The same document streamed member by member and built as a Json tree
// (pinned byte for byte in export_pins_test): the two must agree at every
// indent, including a DOM section embedded below the top level.
TEST(JsonWriterTest, StreamedDocumentMatchesDump) {
  Json section = Json::MakeObject();
  section.Set("list", Json::MakeArray().Append(1).Append(Json::MakeObject()));
  section.Set("empty", Json::MakeArray());

  Json tree = Json::MakeObject();
  tree.Set("null", Json());
  tree.Set("bool", true);
  tree.Set("int", -3);
  tree.Set("int64", int64_t{-4});
  tree.Set("uint64", uint64_t{5});
  tree.Set("double", 0.25);
  tree.Set("chars", "a\"b");
  tree.Set("string", std::string("c\n"));
  tree.Set("view", "d");
  tree.Set("empty_object", Json::MakeObject());
  tree.Set("rows", Json::MakeArray().Append(section).Append(Json()));

  for (const int indent : {-1, 0, 2, 3}) {
    JsonWriter w(indent);
    w.BeginObject();
    w.Member("null", nullptr);
    w.Member("bool", true);
    w.Member("int", -3);
    w.Member("int64", int64_t{-4});
    w.Member("uint64", uint64_t{5});
    w.Member("double", 0.25);
    w.Member("chars", "a\"b");
    w.Member("string", std::string("c\n"));
    w.Member("view", std::string_view("d"));
    w.Key("empty_object");
    w.BeginObject();
    w.End();
    w.Key("rows");
    w.BeginArray();
    w.Value(section);
    w.Value(nullptr);
    w.End();
    w.End();
    EXPECT_EQ(w.Take(), tree.Dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriterTest, TakeLeavesTheWriterEmpty) {
  JsonWriter w;
  w.Value(1);
  EXPECT_EQ(w.Take(), "1");
  w.BeginArray();
  w.End();
  EXPECT_EQ(w.Take(), "[]");
}

TEST(JsonWriterDeathTest, MisuseIsACheckFailure) {
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.Key("k");
      },
      "key outside an object");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginArray();
        w.Key("k");
      },
      "key outside an object");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Value(1);
      },
      "object member without a key");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Key("a");
        w.Key("b");
      },
      "key without a value");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Key("a");
        w.End();
      },
      "key without a value");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.Value(1);
        w.Value(2);
      },
      "second top-level value");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.End();
      },
      "End with no open container");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginArray();
        w.End();
        w.End();
      },
      "End with no open container");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject();
        w.Take();
      },
      "Take before the document is complete");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.Take();
      },
      "Take before the document is complete");
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsTest, CountersAccumulateAcrossCallSites) {
  MetricsRegistry registry;
  registry.GetCounter("a.b.c")->Increment(3);
  registry.GetCounter("a.b.c")->Increment(4);
  EXPECT_EQ(registry.GetCounter("a.b.c")->value(), 7u);
  EXPECT_EQ(registry.NumMetrics(), 1u);
}

TEST(MetricsTest, LabelsDistinguishInstances) {
  MetricsRegistry registry;
  registry.GetCounter("accel.steps", {{"instance", "0"}})->Increment(1);
  registry.GetCounter("accel.steps", {{"instance", "1"}})->Increment(2);
  EXPECT_EQ(registry.NumMetrics(), 2u);
  EXPECT_EQ(
      registry.GetCounter("accel.steps", {{"instance", "1"}})->value(), 2u);
}

TEST(MetricsTest, JsonSnapshotIsSortedAndParses) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Increment();
  registry.GetGauge("a.first")->Set(1.5);
  registry.GetHistogram("m.mid")->Observe(2.0);

  const std::string text = registry.ToJsonString();
  const auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* metrics = parsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->size(), 3u);
  EXPECT_EQ(metrics->array()[0].Find("name")->string_value(), "a.first");
  EXPECT_EQ(metrics->array()[1].Find("name")->string_value(), "m.mid");
  EXPECT_EQ(metrics->array()[2].Find("name")->string_value(), "z.last");
}

TEST(MetricsTest, SnapshotIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry forward;
  forward.GetCounter("a")->Increment(1);
  forward.GetGauge("b")->Set(2.0);
  MetricsRegistry backward;
  backward.GetGauge("b")->Set(2.0);
  backward.GetCounter("a")->Increment(1);
  EXPECT_EQ(forward.ToJsonString(), backward.ToJsonString());
  EXPECT_EQ(forward.ToPrometheusText(), backward.ToPrometheusText());
}

TEST(MetricsTest, EmptyHistogramExposesZeros) {
  MetricsRegistry registry;
  registry.GetHistogram("h");  // registered, never observed
  const auto parsed = Json::Parse(registry.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const Json& metric = parsed.value().Find("metrics")->array()[0];
  EXPECT_EQ(metric.Find("count")->uint_value(), 0u);
  EXPECT_DOUBLE_EQ(metric.Find("min")->double_value(), 0.0);
}

TEST(MetricsTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("accel.dram.bytes", {{"instance", "0"}})
      ->Increment(512);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE accel_dram_bytes counter"),
            std::string::npos);
  EXPECT_NE(text.find("accel_dram_bytes{instance=\"0\"} 512"),
            std::string::npos);
}

TEST(MetricsTest, PrometheusHelpLinesAndLabelEscaping) {
  MetricsRegistry registry;
  // A label value carrying every escaped character class of the 0.0.4
  // exposition format: backslash, double quote, and newline.
  registry
      .GetCounter("svc.shed",
                  {{"reason", "queue \"full\"\nback\\slash"}})
      ->Increment(2);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# HELP svc_shed svc.shed"), std::string::npos);
  EXPECT_NE(text.find("# TYPE svc_shed counter"), std::string::npos);
  EXPECT_NE(
      text.find(
          "svc_shed{reason=\"queue \\\"full\\\"\\nback\\\\slash\"} 2"),
      std::string::npos);
  // The raw newline must never reach the exposition body: every line is
  // either a comment or a sample.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(pos, end - pos);
    EXPECT_TRUE(line.empty() || line[0] == '#' ||
                line.find("svc_shed{") == 0)
        << line;
    pos = end + 1;
  }
}

TEST(MetricsTest, GaugeDropsNonFiniteWrites) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("svc.queued");
  gauge->Set(4.0);
  gauge->Set(std::numeric_limits<double>::quiet_NaN());
  gauge->Set(std::numeric_limits<double>::infinity());
  gauge->Add(-std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(gauge->value(), 4.0);
  gauge->Add(1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 5.0);
  // Each dropped write is accounted, so silent data loss is visible.
  EXPECT_EQ(registry.GetCounter("lightrw.obs.dropped_nonfinite")->value(),
            3u);
}

TEST(MetricsTest, CleanGaugeCreatesNoDropCounter) {
  MetricsRegistry registry;
  registry.GetGauge("svc.queued")->Set(1.0);
  // The drop counter is created lazily on first drop: a clean run's
  // exposition is byte-identical to a build without the hygiene check.
  EXPECT_EQ(registry.NumMetrics(), 1u);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* counter = registry.GetCounter("concurrent");
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("concurrent")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceTest, RecordsAndExportsEvents) {
  TraceRecorder trace;
  trace.NameProcess(0, "instance 0");
  trace.NameTrack(0, 1, "fetch");
  trace.Complete("burst", "dram", 0, 1, 10, 25);
  trace.Instant("hit", "cache", 0, 0, 12);
  trace.Value("inflight", 0, 14, 3.0);
  EXPECT_EQ(trace.num_events(), 3u);

  const auto parsed = Json::Parse(trace.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 metadata records + 3 events.
  ASSERT_EQ(events->size(), 5u);
  // Metadata first, then events sorted by ts.
  EXPECT_EQ(events->array()[0].Find("ph")->string_value(), "M");
  EXPECT_EQ(events->array()[1].Find("ph")->string_value(), "M");
  EXPECT_EQ(events->array()[2].Find("name")->string_value(), "burst");
  EXPECT_EQ(events->array()[2].Find("ts")->uint_value(), 10u);
  EXPECT_EQ(events->array()[2].Find("dur")->uint_value(), 15u);
  EXPECT_EQ(events->array()[3].Find("name")->string_value(), "hit");
  EXPECT_EQ(events->array()[4].Find("name")->string_value(), "inflight");
}

TEST(TraceTest, EventCapIsHonored) {
  TraceConfig config;
  config.max_events = 5;
  TraceRecorder trace(config);
  for (uint64_t i = 0; i < 20; ++i) {
    trace.Instant("e", "c", 0, 0, i);
  }
  EXPECT_EQ(trace.num_events(), 5u);
  EXPECT_EQ(trace.dropped_events(), 15u);
  EXPECT_FALSE(trace.accepting());

  const auto parsed = Json::Parse(trace.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("traceEvents")->size(), 5u);
  EXPECT_EQ(
      parsed.value().Find("metadata")->Find("dropped_events")->uint_value(),
      15u);
}

TEST(TraceTest, ZeroCapDisablesRecording) {
  TraceConfig config;
  config.max_events = 0;
  TraceRecorder trace(config);
  EXPECT_FALSE(trace.accepting());
  trace.Instant("e", "c", 0, 0, 1);
  EXPECT_EQ(trace.num_events(), 0u);
}

TEST(TraceTest, ExportIsSortedByTimestamp) {
  TraceRecorder trace;
  trace.Instant("late", "c", 0, 0, 100);
  trace.Instant("early", "c", 0, 0, 1);
  trace.Instant("mid", "c", 0, 0, 50);
  const auto parsed = Json::Parse(trace.ToJsonString());
  ASSERT_TRUE(parsed.ok());
  const auto& events = parsed.value().Find("traceEvents")->array();
  uint64_t last_ts = 0;
  for (const Json& event : events) {
    if (event.Find("ph")->string_value() == "M") {
      continue;
    }
    const uint64_t ts = event.Find("ts")->uint_value();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
  EXPECT_EQ(last_ts, 100u);
}

TEST(TraceTest, WriteTextFileRoundTrip) {
  const std::string path =
      testing::TempDir() + "/lightrw_obs_test_write.json";
  ASSERT_TRUE(WriteTextFile("{\"ok\":true}\n", path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[64] = {};
  const size_t read = std::fread(buf, 1, sizeof(buf) - 1, file);
  std::fclose(file);
  EXPECT_EQ(std::string(buf, read), "{\"ok\":true}\n");
  std::remove(path.c_str());
}

TEST(TraceTest, WriteToUnwritablePathFails) {
  TraceRecorder trace;
  EXPECT_FALSE(
      WriteTextFile(trace.ToJsonString(), "/nonexistent-dir/trace.json")
          .ok());
}

}  // namespace
}  // namespace lightrw::obs
