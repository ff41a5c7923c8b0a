// Byte pins of the observability exports: the Json encoder at every
// indent, and the span, time-series, metrics and Chrome-trace documents
// of small hand-built recorders. These bytes are a contract: walk_tool's
// determinism gate cmp's the export files and perfbench's correctness
// gate hashes the span and time-series exports, so an encoder change
// that moves a byte fails here first, next to the document it moved.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lightrw::obs {
namespace {

// Multi-line pins open their raw string with a newline so every line of
// the document starts in column 0; Pin drops that newline.
std::string Pin(std::string_view text) { return std::string(text.substr(1)); }

// Empty containers at several depths, every escape class, non-ASCII
// bytes, integer extremes, shortest-form doubles and non-finite values.
Json PinDocument() {
  Json doc = Json::MakeObject();
  doc.Set("empty_object", Json::MakeObject());
  doc.Set("empty_array", Json::MakeArray());
  doc.Set("escapes",
          "quote\" backslash\\ nl\n cr\r tab\t bell\x07 esc\x1b \xc3\xa9");
  doc.Set("key \"q\"\t", true);
  Json numbers = Json::MakeArray();
  numbers.Append(0);
  numbers.Append(std::numeric_limits<int64_t>::min());
  numbers.Append(std::numeric_limits<uint64_t>::max());
  numbers.Append(0.1);
  numbers.Append(-0.0);
  numbers.Append(1e21);
  numbers.Append(1.5e-7);
  numbers.Append(5e-324);
  numbers.Append(std::numeric_limits<double>::infinity());
  numbers.Append(-std::numeric_limits<double>::infinity());
  numbers.Append(std::numeric_limits<double>::quiet_NaN());
  numbers.Append(Json());
  numbers.Append(false);
  doc.Set("numbers", std::move(numbers));
  Json inner = Json::MakeObject();
  inner.Set("b", Json());
  Json deep = Json::MakeArray();
  deep.Append(std::move(inner));
  Json list = Json::MakeArray();
  list.Append(Json::MakeArray());
  list.Append(Json::MakeObject());
  list.Append(std::move(deep));
  Json nested = Json::MakeObject();
  nested.Set("a", std::move(list));
  Json outer = Json::MakeArray();
  outer.Append(std::move(nested));
  outer.Append("");
  doc.Set("nested", std::move(outer));
  return doc;
}

TEST(ExportPinTest, JsonCompact) {
  EXPECT_EQ(PinDocument().Dump(-1),
            "{\"empty_object\":{},\"empty_array\":[],\"escapes\":\"quote\\\" "
            "backslash\\\\ nl\\n cr\\r tab\\t bell\\u0007 esc\\u001b é\",\"ke"
            "y \\\"q\\\"\\t\":true,\"numbers\":[0,-9223372036854775808,184467"
            "44073709551615,0.1,-0,1e+21,1.5e-07,5e-324,null,null,null,null,f"
            "alse],\"nested\":[{\"a\":[[],{},[{\"b\":null}]]},\"\"]}");
}

TEST(ExportPinTest, JsonIndentZero) {
  EXPECT_EQ(PinDocument().Dump(0), Pin(R"pin(
{
"empty_object": {},
"empty_array": [],
"escapes": "quote\" backslash\\ nl\n cr\r tab\t bell\u0007 esc\u001b é",
"key \"q\"\t": true,
"numbers": [
0,
-9223372036854775808,
18446744073709551615,
0.1,
-0,
1e+21,
1.5e-07,
5e-324,
null,
null,
null,
null,
false
],
"nested": [
{
"a": [
[],
{},
[
{
"b": null
}
]
]
},
""
]
})pin"));
}

TEST(ExportPinTest, JsonIndentTwo) {
  EXPECT_EQ(PinDocument().Dump(2), Pin(R"pin(
{
  "empty_object": {},
  "empty_array": [],
  "escapes": "quote\" backslash\\ nl\n cr\r tab\t bell\u0007 esc\u001b é",
  "key \"q\"\t": true,
  "numbers": [
    0,
    -9223372036854775808,
    18446744073709551615,
    0.1,
    -0,
    1e+21,
    1.5e-07,
    5e-324,
    null,
    null,
    null,
    null,
    false
  ],
  "nested": [
    {
      "a": [
        [],
        {},
        [
          {
            "b": null
          }
        ]
      ]
    },
    ""
  ]
})pin"));
}

// Trace 7 closes first and is evicted from the two-trace ring; trace 2
// closes with its child still open; trace 5 breaches, with attrs, events
// and a fourth span over the per-trace cap; trace 4 never closes.
TEST(ExportPinTest, SpanRecorder) {
  SpanConfig config;
  config.mode = SpanMode::kAll;
  config.max_traces = 2;
  config.max_spans_per_trace = 3;
  SpanRecorder rec(config);
  const uint64_t r7 = rec.Begin(7, 0, "query", "service", -1, 10);
  rec.End(7, r7, 20);
  rec.CloseTrace(7, 10, 20, false, "completed");

  const uint64_t r2 = rec.Begin(2, 0, "query", "service", -1, 30);
  const uint64_t q2 = rec.Begin(2, r2, "queue", "service", 1, 30);
  rec.Attr(2, q2, "depth", 4);
  rec.End(2, r2, 90);
  rec.CloseTrace(2, 30, 90, false, "completed");

  const uint64_t r5 = rec.Begin(5, 0, "query", "service", -1, 40);
  const uint64_t w5 = rec.Begin(5, r5, "walk", "cluster", 3, 45);
  rec.Attr(5, w5, "dram_fetch", 17);
  rec.Attr(5, w5, "sampler", 9);
  rec.Event(5, w5, "ecc_uncorrectable", 50);
  rec.Event(5, w5, "board_death", 60);
  rec.End(5, w5, 70);
  const uint64_t b5 = rec.Begin(5, r5, "backoff", "service", -1, 70);
  rec.End(5, b5, 80);
  EXPECT_EQ(rec.Begin(5, r5, "queue", "service", -1, 80), 0u);
  rec.End(5, r5, 120);
  rec.CloseTrace(5, 40, 120, true, "deadline_missed");

  const uint64_t w4 = rec.Begin(4, 0, "walk", "cluster", 0, 5);
  rec.Attr(4, w4, "pipeline", 2);

  EXPECT_EQ(rec.ToJsonString(), Pin(R"pin(
{
  "config": {
    "mode": "all",
    "max_traces": 2,
    "max_spans_per_trace": 3
  },
  "counters": {
    "traces_closed": 3,
    "traces_retained": 2,
    "traces_open": 1,
    "traces_evicted": 1,
    "spans_dropped": 1
  },
  "summaries": [
    {
      "trace": 2,
      "start": 30,
      "end": 90,
      "breached": false,
      "outcome": "completed"
    },
    {
      "trace": 5,
      "start": 40,
      "end": 120,
      "breached": true,
      "outcome": "deadline_missed"
    },
    {
      "trace": 7,
      "start": 10,
      "end": 20,
      "breached": false,
      "outcome": "completed"
    }
  ],
  "spans": [
    {
      "trace": 2,
      "span": 13757245211066428519,
      "parent": 0,
      "seq": 0,
      "name": "query",
      "category": "service",
      "board": -1,
      "start": 30,
      "end": 90,
      "open": false
    },
    {
      "trace": 2,
      "span": 13819372491320860226,
      "parent": 13757245211066428519,
      "seq": 1,
      "name": "queue",
      "category": "service",
      "board": 1,
      "start": 30,
      "end": 30,
      "open": true,
      "attrs": {
        "depth": 4
      }
    },
    {
      "trace": 4,
      "span": 8196980753821780235,
      "parent": 0,
      "seq": 0,
      "name": "walk",
      "category": "cluster",
      "board": 0,
      "start": 5,
      "end": 5,
      "open": true,
      "attrs": {
        "pipeline": 2
      }
    },
    {
      "trace": 5,
      "span": 8195237237126968761,
      "parent": 0,
      "seq": 0,
      "name": "query",
      "category": "service",
      "board": -1,
      "start": 40,
      "end": 120,
      "open": false
    },
    {
      "trace": 5,
      "span": 5747796768693156649,
      "parent": 8195237237126968761,
      "seq": 1,
      "name": "walk",
      "category": "cluster",
      "board": 3,
      "start": 45,
      "end": 70,
      "open": false,
      "attrs": {
        "dram_fetch": 17,
        "sampler": 9
      },
      "events": [
        {
          "name": "ecc_uncorrectable",
          "at": 50
        },
        {
          "name": "board_death",
          "at": 60
        }
      ]
    },
    {
      "trace": 5,
      "span": 3992596847233833366,
      "parent": 8195237237126968761,
      "seq": 2,
      "name": "backoff",
      "category": "service",
      "board": -1,
      "start": 70,
      "end": 80,
      "open": false
    }
  ]
})pin"));
}

// Ten-cycle windows; the ring keeps eight of the eleven closed, and
// window 8's counter spike opens an incident that a fault annotates.
TEST(ExportPinTest, TimeSeriesRecorder) {
  TimeSeriesConfig config;
  config.scrape_interval = 10;
  config.max_windows = 8;
  TimeSeriesRecorder ts(config);
  Counter* steps = ts.GetCounter("svc.steps", {{"shard", "a\"b"}});
  Gauge* depth = ts.GetGauge("svc.queue_depth");
  WindowedHistogram* latency = ts.GetHistogram("svc.latency_cycles");
  for (uint64_t w = 0; w < 10; ++w) {
    ts.AdvanceTo(w * 10 + 5);
    steps->Increment(w == 8 ? 400 : 10);
    depth->Set(0.5 * static_cast<double>(w));
    if (w % 3 != 1) {
      latency->Observe(static_cast<double>(100 + w), w + 1, 1000 + w);
      latency->Observe(static_cast<double>(100 + w), w, 2000 + w);
      latency->Observe(7.25, 99, 3);
    }
  }
  ts.Annotate("board_death", 84, "board 3");
  ts.Annotate("slo_burn_fire", 12, "");
  ts.Finish(103);

  EXPECT_EQ(ts.ToJsonString(), Pin(R"pin(
{
  "schema": "timeseries.v1",
  "scrape_interval": 10,
  "first_window": 3,
  "windows": 8,
  "final_cycle": 103,
  "window_end": [
    40,
    50,
    60,
    70,
    80,
    90,
    100,
    103
  ],
  "series": [
    {
      "name": "svc.latency_cycles",
      "kind": "histogram",
      "points": [
        {
          "w": 3,
          "count": 3,
          "sum": 213.25,
          "p50": 103,
          "p99": 103,
          "exemplar": {
            "trace": 3,
            "span": 2003,
            "value": 103
          }
        },
        {
          "w": 4,
          "count": 0
        },
        {
          "w": 5,
          "count": 3,
          "sum": 217.25,
          "p50": 105,
          "p99": 105,
          "exemplar": {
            "trace": 5,
            "span": 2005,
            "value": 105
          }
        },
        {
          "w": 6,
          "count": 3,
          "sum": 219.25,
          "p50": 106,
          "p99": 106,
          "exemplar": {
            "trace": 6,
            "span": 2006,
            "value": 106
          }
        },
        {
          "w": 7,
          "count": 0
        },
        {
          "w": 8,
          "count": 3,
          "sum": 223.25,
          "p50": 108,
          "p99": 108,
          "exemplar": {
            "trace": 8,
            "span": 2008,
            "value": 108
          }
        },
        {
          "w": 9,
          "count": 3,
          "sum": 225.25,
          "p50": 109,
          "p99": 109,
          "exemplar": {
            "trace": 9,
            "span": 2009,
            "value": 109
          }
        },
        {
          "w": 10,
          "count": 0
        }
      ]
    },
    {
      "name": "svc.queue_depth",
      "kind": "gauge",
      "points": [
        {
          "w": 3,
          "value": 1.5
        },
        {
          "w": 4,
          "value": 2
        },
        {
          "w": 5,
          "value": 2.5
        },
        {
          "w": 6,
          "value": 3
        },
        {
          "w": 7,
          "value": 3.5
        },
        {
          "w": 8,
          "value": 4
        },
        {
          "w": 9,
          "value": 4.5
        },
        {
          "w": 10,
          "value": 4.5
        }
      ]
    },
    {
      "name": "svc.steps",
      "labels": {
        "shard": "a\"b"
      },
      "kind": "counter",
      "points": [
        {
          "w": 3,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 4,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 5,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 6,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 7,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 8,
          "delta": 400,
          "rate_per_kcycle": 40000
        },
        {
          "w": 9,
          "delta": 10,
          "rate_per_kcycle": 1000
        },
        {
          "w": 10,
          "delta": 0,
          "rate_per_kcycle": 0
        }
      ]
    }
  ],
  "annotations": [
    {
      "kind": "slo_burn_fire",
      "cycle": 12
    },
    {
      "kind": "board_death",
      "cycle": 84,
      "detail": "board 3"
    }
  ],
  "incidents": [
    {
      "series": "svc.steps{shard=a\"b}",
      "open_window": 8,
      "close_window": 10,
      "closed": false,
      "severity": 53.91530873782131,
      "annotations": [
        "board_death@84 board 3"
      ]
    }
  ]
}
)pin"));
  EXPECT_EQ(ts.ToOpenMetricsText(), Pin(R"pin(
# TYPE svc_latency_cycles_count counter
svc_latency_cycles_count_total 3 40 # {trace_id="3",span_id="2003"} 103 40
svc_latency_cycles_count_total 3 50
svc_latency_cycles_count_total 6 60 # {trace_id="5",span_id="2005"} 105 60
svc_latency_cycles_count_total 9 70 # {trace_id="6",span_id="2006"} 106 70
svc_latency_cycles_count_total 9 80
svc_latency_cycles_count_total 12 90 # {trace_id="8",span_id="2008"} 108 90
svc_latency_cycles_count_total 15 100 # {trace_id="9",span_id="2009"} 109 100
svc_latency_cycles_count_total 15 103
# TYPE svc_latency_cycles_p50 gauge
svc_latency_cycles_p50 103 40
svc_latency_cycles_p50 105 60
svc_latency_cycles_p50 106 70
svc_latency_cycles_p50 108 90
svc_latency_cycles_p50 109 100
# TYPE svc_latency_cycles_p99 gauge
svc_latency_cycles_p99 103 40
svc_latency_cycles_p99 105 60
svc_latency_cycles_p99 106 70
svc_latency_cycles_p99 108 90
svc_latency_cycles_p99 109 100
# TYPE svc_queue_depth gauge
svc_queue_depth 1.5 40
svc_queue_depth 2 50
svc_queue_depth 2.5 60
svc_queue_depth 3 70
svc_queue_depth 3.5 80
svc_queue_depth 4 90
svc_queue_depth 4.5 100
svc_queue_depth 4.5 103
# TYPE svc_steps counter
svc_steps_total{shard="a\"b"} 10 40
svc_steps_total{shard="a\"b"} 20 50
svc_steps_total{shard="a\"b"} 30 60
svc_steps_total{shard="a\"b"} 40 70
svc_steps_total{shard="a\"b"} 50 80
svc_steps_total{shard="a\"b"} 450 90
svc_steps_total{shard="a\"b"} 460 100
svc_steps_total{shard="a\"b"} 460 103
# EOF
)pin"));
}

TEST(ExportPinTest, MetricsRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("accel.steps", {{"instance", "1"}})->Increment(7);
  registry.GetCounter("accel.steps", {{"instance", "0"}})->Increment(3);
  registry.GetCounter("odd.back\\slash", {{"v", "q\"\\\n"}})->Increment();
  registry.GetGauge("svc.load")->Set(0.1);
  registry.GetGauge("svc.load")->Set(std::numeric_limits<double>::quiet_NaN());
  Histogram* latency = registry.GetHistogram("svc.latency", {{"k", "v"}});
  for (int i = 1; i <= 5; ++i) {
    latency->Observe(1.5 * i);
  }
  registry.GetHistogram("svc.empty");

  EXPECT_EQ(registry.ToJsonString(), Pin(R"pin(
{
  "metrics": [
    {
      "name": "accel.steps",
      "labels": {
        "instance": "0"
      },
      "type": "counter",
      "value": 3
    },
    {
      "name": "accel.steps",
      "labels": {
        "instance": "1"
      },
      "type": "counter",
      "value": 7
    },
    {
      "name": "lightrw.obs.dropped_nonfinite",
      "type": "counter",
      "value": 1
    },
    {
      "name": "odd.back\\slash",
      "labels": {
        "v": "q\"\\\n"
      },
      "type": "counter",
      "value": 1
    },
    {
      "name": "svc.empty",
      "type": "histogram",
      "count": 0,
      "sum": 0,
      "min": 0,
      "max": 0,
      "p50": 0,
      "p95": 0,
      "p99": 0
    },
    {
      "name": "svc.latency",
      "labels": {
        "k": "v"
      },
      "type": "histogram",
      "count": 5,
      "sum": 22.5,
      "min": 1.5,
      "max": 7.5,
      "p50": 4.5,
      "p95": 7.199999999999999,
      "p99": 7.4399999999999995
    },
    {
      "name": "svc.load",
      "type": "gauge",
      "value": 0.1
    }
  ]
}
)pin"));
  EXPECT_EQ(registry.ToPrometheusText(), Pin(R"pin(
# HELP accel_steps accel.steps
# TYPE accel_steps counter
accel_steps{instance="0"} 3
accel_steps{instance="1"} 7
# HELP lightrw_obs_dropped_nonfinite lightrw.obs.dropped_nonfinite
# TYPE lightrw_obs_dropped_nonfinite counter
lightrw_obs_dropped_nonfinite 1
# HELP odd_back\slash odd.back\\slash
# TYPE odd_back\slash counter
odd_back\slash{v="q\"\\\n"} 1
# HELP svc_empty svc.empty
# TYPE svc_empty summary
svc_empty{quantile="0.5"} 0
svc_empty{quantile="0.95"} 0
svc_empty{quantile="0.99"} 0
svc_empty_sum 0
svc_empty_count 0
# HELP svc_latency svc.latency
# TYPE svc_latency summary
svc_latency{k="v",quantile="0.5"} 4.5
svc_latency{k="v",quantile="0.95"} 7.199999999999999
svc_latency{k="v",quantile="0.99"} 7.4399999999999995
svc_latency_sum{k="v"} 22.5
svc_latency_count{k="v"} 5
# HELP svc_load svc.load
# TYPE svc_load gauge
svc_load 0.1
)pin"));
}

// Five-event cap: the sixth event is dropped; the rest export stably
// sorted by timestamp after the track labels.
TEST(ExportPinTest, TraceRecorder) {
  TraceConfig config;
  config.max_events = 5;
  TraceRecorder trace(config);
  trace.NameProcess(1, "board \"1\"");
  trace.NameTrack(1, 2, "dram\tchannel");
  trace.Complete("fetch", "dram", 1, 2, 50, 80);
  trace.Instant("hit", "cache", 1, 0, 20);
  trace.Value("inflight", 1, 20, 0.25);
  trace.Complete("bare", "", 0, 0, 20, 10);
  trace.Instant("late", "cache", 1, 0, 90);
  trace.Instant("dropped", "cache", 1, 0, 5);

  EXPECT_EQ(trace.ToJsonString(),
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid"
            "\":1,\"tid\":0,\"args\":{\"name\":\"board \\\"1\\\"\"}},{\"name"
            "\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\""
            "name\":\"dram\\tchannel\"}},{\"name\":\"hit\",\"cat\":\"cache\","
            "\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":20,\"s\":\"t\"},{\"name"
            "\":\"inflight\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid"
            "\":0,\"ts\":20,\"args\":{\"value\":0.25}},{\"name\":\"bare\",\"p"
            "h\":\"X\",\"pid\":0,\"tid\":0,\"ts\":20,\"dur\":0},{\"name\":\"f"
            "etch\",\"cat\":\"dram\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":"
            "50,\"dur\":30},{\"name\":\"late\",\"cat\":\"cache\",\"ph\":\"i\""
            ",\"pid\":1,\"tid\":0,\"ts\":90,\"s\":\"t\"}],\"displayTimeUnit\""
            ":\"ns\",\"metadata\":{\"clock\":\"simulated-cycles\",\"dropped_e"
            "vents\":1}}\n");
}

}  // namespace
}  // namespace lightrw::obs
