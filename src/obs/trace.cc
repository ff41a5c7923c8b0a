#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

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

void TraceRecorder::Value(const char* name, uint32_t pid, uint64_t cycle,
                          double value) {
  TraceEvent event;
  event.phase = 'C';
  event.name = name;
  event.category = "counter";
  event.pid = pid;
  event.ts = cycle;
  event.value = value;
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

Json TraceRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json trace_events = Json::MakeArray();

  // Metadata first: process and thread labels ("M" phase).
  for (const auto& [pid, name] : process_names_) {
    Json args = Json::MakeObject();
    args.Set("name", name);
    Json event = Json::MakeObject();
    event.Set("name", "process_name");
    event.Set("ph", "M");
    event.Set("pid", static_cast<uint64_t>(pid));
    event.Set("tid", static_cast<uint64_t>(0));
    event.Set("args", std::move(args));
    trace_events.Append(std::move(event));
  }
  for (const auto& [pid, tid, name] : track_names_) {
    Json args = Json::MakeObject();
    args.Set("name", name);
    Json event = Json::MakeObject();
    event.Set("name", "thread_name");
    event.Set("ph", "M");
    event.Set("pid", static_cast<uint64_t>(pid));
    event.Set("tid", static_cast<uint64_t>(tid));
    event.Set("args", std::move(args));
    trace_events.Append(std::move(event));
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
    Json out = Json::MakeObject();
    out.Set("name", event->name);
    if (event->category[0] != '\0') {
      out.Set("cat", event->category);
    }
    out.Set("ph", std::string(1, event->phase));
    out.Set("pid", static_cast<uint64_t>(event->pid));
    out.Set("tid", static_cast<uint64_t>(event->tid));
    out.Set("ts", event->ts);
    switch (event->phase) {
      case 'X':
        out.Set("dur", event->dur);
        break;
      case 'i':
        out.Set("s", "t");  // instant scope: thread
        break;
      case 'C': {
        Json args = Json::MakeObject();
        args.Set("value", event->value);
        out.Set("args", std::move(args));
        break;
      }
      default:
        break;
    }
    trace_events.Append(std::move(out));
  }

  Json doc = Json::MakeObject();
  doc.Set("traceEvents", std::move(trace_events));
  doc.Set("displayTimeUnit", "ns");
  Json metadata = Json::MakeObject();
  metadata.Set("clock", "simulated-cycles");
  metadata.Set("dropped_events", dropped_events_.load());
  doc.Set("metadata", std::move(metadata));
  return doc;
}

std::string TraceRecorder::ToJsonString() const {
  std::string out = ToJson().Dump();
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
