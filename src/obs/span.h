// Per-query span tracing.
//
// Where the metrics registry answers "how much, in aggregate" and the
// Chrome-trace recorder answers "what was each hardware track doing",
// spans answer the per-query question: *where did this query's cycles
// go*. Every query owns one trace (trace id = the walker ticket the
// driver launched it with), holding a tree of spans:
//
//   query                      service root: arrival -> terminal event
//   ├── queue                  admission enqueue -> dispatch (per attempt)
//   ├── walk                   ClusterSim execution (per attempt), with
//   │                          cycle-stage attribution attrs (dram_info,
//   │                          dram_fetch, sampler, pipeline, network,
//   │                          recovery) and fault events (hwsim retries,
//   │                          uncorrectable ECC, link loss, board death)
//   └── backoff                bounce -> scheduled re-admission
//
// Determinism: span ids are a pure function of (walker ticket, per-trace
// ordinal) — never of wall time, pointers, or thread interleaving — and
// the export sorts spans by (trace, ordinal). Since every query is owned
// by exactly one deterministic event loop (an admission shard or the
// batch loop), the exported document is byte-identical for every host
// thread count; the determinism-gate CI job enforces this.
//
// Flight recorder: in kBreached mode only traces explicitly closed as
// breached keep their spans (bounded to `max_traces`, oldest evicted),
// so full-fleet runs stay memory-bounded while every deadline miss is
// still fully explainable. A compact per-trace summary (terminal cycle,
// outcome) is kept for *every* closed trace regardless of mode — that is
// what the SLO burn-rate monitor consumes.
//
// Threading model: like TraceRecorder, a SpanRecorder is either owned by
// one single-threaded event loop or instantiated per shard and merged in
// fixed shard order via MergeFrom (the export's canonical sort makes the
// merge order invisible). All methods take an internal lock, so sharing
// a recorder across engine shards is safe, merely unnecessary.

#ifndef LIGHTRW_OBS_SPAN_H_
#define LIGHTRW_OBS_SPAN_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace lightrw::obs {

enum class SpanMode : uint8_t {
  kAll,       // keep every closed trace's spans
  kBreached,  // flight recorder: keep spans only for breached traces
};

struct SpanConfig {
  SpanMode mode = SpanMode::kAll;
  // Bound on retained closed traces (ring: oldest evicted and counted).
  // Traces still open (their query is in flight) are additionally
  // bounded by the driver's own admission limits.
  size_t max_traces = 1u << 16;
  // Bound on spans buffered per trace; excess spans are dropped and
  // counted (a query's span count is proportional to its retry budget,
  // so this only trips on pathological configurations).
  size_t max_spans_per_trace = 256;
};

// A point event within a span (e.g. a fault annotation).
struct SpanEvent {
  const char* name = "";
  uint64_t at = 0;  // simulated cycle
};

// One recorded span. `name`, `category`, attr keys, and event names must
// be string literals (pointers are stored, not copies).
struct Span {
  uint64_t trace = 0;   // owning trace (walker ticket / query index)
  uint64_t id = 0;      // deterministic, nonzero
  uint64_t parent = 0;  // parent span id; 0 = trace root
  uint64_t seq = 0;     // index among its trace's spans (export sort key)
  const char* name = "";
  const char* category = "";
  int64_t board = -1;  // global board id, -1 = not board-bound
  uint64_t start = 0;  // simulated cycles
  uint64_t end = 0;
  bool open = true;
  std::vector<std::pair<const char*, uint64_t>> attrs;
  std::vector<SpanEvent> events;
};

// Terminal record of one closed trace; kept for every trace in every
// mode. The burn-rate monitor and shed/breach accounting read these.
struct TraceSummary {
  uint64_t trace = 0;
  uint64_t start = 0;     // root span start (admission of the query)
  uint64_t end = 0;       // terminal cycle
  bool breached = false;  // deadline missed, shed, or failed
  const char* outcome = "";
};

// Deterministic span id for (trace, per-trace ordinal): a SplitMix64
// finalizer over the pair, never zero. Exposed so tests can pin it.
uint64_t DeriveSpanId(uint64_t trace, uint64_t seq);

class SpanRecorder {
 public:
  explicit SpanRecorder(const SpanConfig& config = {});
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  const SpanConfig& config() const { return config_; }

  // Opens a span on `trace` and returns its id (0 iff the per-trace span
  // cap dropped it; all other calls ignore id 0, so callers may pass the
  // result straight back without checking).
  uint64_t Begin(uint64_t trace, uint64_t parent, const char* name,
                 const char* category, int64_t board, uint64_t start_cycle);
  // Closes span `id` of `trace` at `end_cycle`. Unknown ids are ignored.
  void End(uint64_t trace, uint64_t id, uint64_t end_cycle);
  // Attaches a numeric attribute / point event to an open-or-closed span
  // of a still-live trace. Setting an attribute key the span already has
  // overwrites its value in place.
  void Attr(uint64_t trace, uint64_t id, const char* key, uint64_t value);
  void Event(uint64_t trace, uint64_t id, const char* name, uint64_t cycle);

  // Settles a trace: records its summary and either retains or discards
  // its spans per the mode. Every driver that opens a root span must
  // close the trace exactly once; spans never closed (batch drivers that
  // only record walk spans) are exported from the open set as-is.
  void CloseTrace(uint64_t trace, uint64_t start_cycle, uint64_t end_cycle,
                  bool breached, const char* outcome);

  // Absorbs a shard recorder (disjoint trace sets; merged in fixed shard
  // order by the parallel drivers). `shard` is left empty.
  void MergeFrom(SpanRecorder* shard);

  // Snapshot of retained + still-open spans, sorted by (trace, seq) —
  // canonical regardless of shard merge order.
  std::vector<Span> Spans() const;
  // Closed-trace summaries sorted by (trace).
  std::vector<TraceSummary> Summaries() const;

  // Retained + still-open spans: Spans().size() without the copy.
  size_t num_spans() const;
  size_t num_retained_traces() const;
  uint64_t traces_closed() const;
  uint64_t traces_evicted() const;  // flight-recorder ring overflow
  uint64_t spans_dropped() const;   // per-trace span-cap overflow

  // The export document {"config": {...}, "counters": {...},
  // "summaries": [...], "spans": [...]}, deterministic (sorted as above)
  // and streamed from the recorder's buffers without copying them.
  // WriteJsonMembers writes the four members into an object the caller
  // has opened, so a tool can append sections of its own before closing
  // it; ToJsonString is the bare document (no trailing newline).
  void WriteJsonMembers(JsonWriter* writer) const;
  std::string ToJsonString(int indent = 2) const;

 private:
  Span* FindLocked(uint64_t trace, uint64_t id);
  // Every retained and open span, sorted by (trace, seq).
  std::vector<const Span*> SortedSpansLocked() const;

  SpanConfig config_;
  mutable std::mutex mutex_;
  // One vector per trace, keyed by trace id; a span's seq is its index
  // in its trace's vector.
  std::unordered_map<uint64_t, std::vector<Span>> open_;
  // Closed traces whose spans were retained, in close order (the
  // flight-recorder ring; evicts from the front).
  std::deque<std::vector<Span>> retained_;
  std::vector<TraceSummary> summaries_;
  uint64_t traces_closed_ = 0;
  uint64_t traces_evicted_ = 0;
  uint64_t spans_dropped_ = 0;
};

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_SPAN_H_
