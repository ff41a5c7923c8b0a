// Simulated-time trace recorder.
//
// Records events stamped in *simulated kernel cycles* (hwsim::Cycle) and
// exports them as Chrome trace_event JSON, loadable in Perfetto or
// chrome://tracing. One trace tick equals one simulated cycle (the file
// sets displayTimeUnit "ns"; absolute wall durations are meaningless for
// a simulation, only the cycle axis matters).
//
// Track model: pid = engine replica (accelerator instance / board),
// tid = pipeline stage lane within it. NameTrack() emits the standard
// process_name / thread_name metadata so viewers show readable labels.
//
// Event classes:
//   Complete  a busy interval on a track ("X" phase): DRAM request
//             service window, burst stream, WRS consume window
//   Instant   a point event ("i"): cache hit/miss, query retire
//
// Recording is bounded: at most `max_events` events are kept (default
// 1M); later events are dropped and counted so big runs stay bounded in
// memory while the drop is visible. The recorder is thread-safe, and the
// export is deterministic: events are stably sorted by timestamp.

#ifndef LIGHTRW_OBS_TRACE_H_
#define LIGHTRW_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"

namespace lightrw::obs {

struct TraceConfig {
  // Hard cap on recorded events; 0 disables recording entirely.
  size_t max_events = 1u << 20;
};

// One recorded trace event (pre-serialization form).
struct TraceEvent {
  char phase = 'X';       // 'X' complete, 'i' instant
  const char* name = "";  // static string
  const char* category = "";
  uint32_t pid = 0;
  uint32_t tid = 0;
  uint64_t ts = 0;   // start, in simulated cycles
  uint64_t dur = 0;  // complete events only
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceConfig& config = {});
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const TraceConfig& config() const { return config_; }

  // True while the recorder still accepts events; a cheap pre-check so
  // hot loops can skip argument setup once the cap is hit.
  bool accepting() const {
    return num_events_.load(std::memory_order_relaxed) < config_.max_events;
  }

  // `name` and `category` must be string literals (or otherwise outlive
  // the recorder): events store the pointers, not copies.
  void Complete(const char* name, const char* category, uint32_t pid,
                uint32_t tid, uint64_t start_cycle, uint64_t end_cycle);
  void Instant(const char* name, const char* category, uint32_t pid,
               uint32_t tid, uint64_t cycle);

  // Human-readable labels for the pid / (pid, tid) tracks.
  void NameProcess(uint32_t pid, const std::string& name);
  void NameTrack(uint32_t pid, uint32_t tid, const std::string& name);

  // Absorbs a shard recorder: appends its events (up to this recorder's
  // cap; the excess is counted as dropped, as if recorded here), process
  // and track labels. The parallel engines give each shard a private
  // recorder and merge the shards in fixed shard order, which reproduces
  // the exact event sequence a serial run records — without any shared
  // lock on the simulation hot path. `shard` is left empty.
  void MergeFrom(TraceRecorder* shard);

  size_t num_events() const {
    return num_events_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }

  // Chrome trace_event "JSON Object Format": {"traceEvents": [...],
  // "displayTimeUnit": "ns"}, compact, with a trailing newline. Events
  // are stably sorted by (ts) so every per-track sequence is monotone.
  std::string ToJsonString() const;

 private:
  void Record(TraceEvent event);

  TraceConfig config_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<uint32_t, std::string>> process_names_;
  // (pid, tid, name) triples.
  std::vector<std::tuple<uint32_t, uint32_t, std::string>> track_names_;
  std::atomic<size_t> num_events_{0};
  std::atomic<uint64_t> dropped_events_{0};
};

// Writes `text` to `path` in one shot; walk_tool writes every export
// file through it.
Status WriteTextFile(const std::string& text, const std::string& path);

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_TRACE_H_
