#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "obs/json.h"

namespace lightrw::obs {

TraceRecorder::TraceRecorder(const TraceConfig& config) : config_(config) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.reserve(std::min<size_t>(config_.max_events, 1u << 16));
}

void TraceRecorder::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= config_.max_events) {
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(event);
  num_events_.store(events_.size(), std::memory_order_relaxed);
}

void TraceRecorder::Complete(const char* name, const char* category,
                             uint32_t pid, uint32_t tid,
                             uint64_t start_cycle, uint64_t end_cycle) {
  TraceEvent event;
  event.phase = 'X';
  event.name = name;
  event.category = category;
  event.pid = pid;
  event.tid = tid;
  event.ts = start_cycle;
  event.dur = end_cycle >= start_cycle ? end_cycle - start_cycle : 0;
  Record(event);
}

void TraceRecorder::Instant(const char* name, const char* category,
                            uint32_t pid, uint32_t tid, uint64_t cycle) {
  TraceEvent event;
  event.phase = 'i';
  event.name = name;
  event.category = category;
  event.pid = pid;
  event.tid = tid;
  event.ts = cycle;
  Record(event);
}

void TraceRecorder::NameProcess(uint32_t pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_names_.emplace_back(pid, name);
}

void TraceRecorder::NameTrack(uint32_t pid, uint32_t tid,
                              const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  track_names_.emplace_back(pid, tid, name);
}

void TraceRecorder::MergeFrom(TraceRecorder* shard) {
  if (shard == nullptr || shard == this) {
    return;
  }
  std::scoped_lock lock(mutex_, shard->mutex_);
  for (const TraceEvent& event : shard->events_) {
    if (events_.size() >= config_.max_events) {
      dropped_events_.fetch_add(1, std::memory_order_relaxed);
    } else {
      events_.push_back(event);
    }
  }
  dropped_events_.fetch_add(
      shard->dropped_events_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  num_events_.store(events_.size(), std::memory_order_relaxed);
  for (auto& entry : shard->process_names_) {
    process_names_.push_back(std::move(entry));
  }
  for (auto& entry : shard->track_names_) {
    track_names_.push_back(std::move(entry));
  }
  shard->events_.clear();
  shard->process_names_.clear();
  shard->track_names_.clear();
  shard->num_events_.store(0, std::memory_order_relaxed);
  shard->dropped_events_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::ToJsonString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();

  // Metadata first: process and thread labels ("M" phase).
  const auto label = [&w](const char* kind, uint32_t pid, uint32_t tid,
                          const std::string& name) {
    w.BeginObject();
    w.Member("name", kind);
    w.Member("ph", "M");
    w.Member("pid", static_cast<uint64_t>(pid));
    w.Member("tid", static_cast<uint64_t>(tid));
    w.Key("args");
    w.BeginObject();
    w.Member("name", name);
    w.End();
    w.End();
  };
  for (const auto& [pid, name] : process_names_) {
    label("process_name", pid, 0, name);
  }
  for (const auto& [pid, tid, name] : track_names_) {
    label("thread_name", pid, tid, name);
  }

  // Events in timestamp order: stable sort keeps the recording order of
  // simultaneous events, so the export is deterministic.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events_.size());
  for (const TraceEvent& event : events_) {
    ordered.push_back(&event);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts < b->ts;
                   });

  for (const TraceEvent* event : ordered) {
    w.BeginObject();
    w.Member("name", event->name);
    if (event->category[0] != '\0') {
      w.Member("cat", event->category);
    }
    w.Member("ph", std::string_view(&event->phase, 1));
    w.Member("pid", static_cast<uint64_t>(event->pid));
    w.Member("tid", static_cast<uint64_t>(event->tid));
    w.Member("ts", event->ts);
    if (event->phase == 'X') {
      w.Member("dur", event->dur);
    } else {
      w.Member("s", "t");  // instant scope: thread
    }
    w.End();
  }
  w.End();

  w.Member("displayTimeUnit", "ns");
  w.Key("metadata");
  w.BeginObject();
  w.Member("clock", "simulated-cycles");
  w.Member("dropped_events", dropped_events_.load());
  w.End();
  w.End();
  std::string out = w.Take();
  out += '\n';
  return out;
}

Status WriteTextFile(const std::string& text, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return IoError("cannot open output file: " + path);
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const int close_result = std::fclose(file);
  if (written != text.size() || close_result != 0) {
    return IoError("short write to output file: " + path);
  }
  return Status::Ok();
}

}  // namespace lightrw::obs
