#include "obs/span.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace lightrw::obs {

uint64_t DeriveSpanId(uint64_t trace, uint64_t seq) {
  // SplitMix64 finalizer over a golden-ratio combination of the pair.
  uint64_t x = trace * 0x9e3779b97f4a7c15ULL + seq + 1;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

SpanRecorder::SpanRecorder(const SpanConfig& config) : config_(config) {}

uint64_t SpanRecorder::Begin(uint64_t trace, uint64_t parent,
                             const char* name, const char* category,
                             int64_t board, uint64_t start_cycle) {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceBuf& buf = BufLocked(trace);
  if (buf.live >= config_.max_spans_per_trace) {
    ++spans_dropped_;
    return 0;
  }
  // Reuse a recycled Span node past `live` when one exists; its attr and
  // event vectors keep their capacity.
  if (buf.live == buf.spans.size()) {
    buf.spans.emplace_back();
  }
  Span& span = buf.spans[buf.live++];
  span.trace = trace;
  span.seq = buf.next_seq++;
  span.id = DeriveSpanId(trace, span.seq);
  span.parent = parent;
  span.name = name;
  span.category = category;
  span.board = board;
  span.start = start_cycle;
  span.end = start_cycle;
  span.open = true;
  span.attrs.clear();
  span.events.clear();
  return span.id;
}

SpanRecorder::TraceBuf& SpanRecorder::BufLocked(uint64_t trace) {
  if (cached_buf_ != nullptr && cached_trace_ == trace) {
    return *cached_buf_;
  }
  auto [it, inserted] = open_.try_emplace(trace);
  if (inserted && !pool_.empty()) {
    it->second = std::move(pool_.back());
    pool_.pop_back();
  }
  cached_trace_ = trace;
  cached_buf_ = &it->second;
  return it->second;
}

void SpanRecorder::RecycleLocked(TraceBuf&& buf) {
  // Bounded: past this the working set is covered and extra buffers
  // would only pin memory.
  constexpr size_t kPoolCap = 1024;
  if (pool_.size() >= kPoolCap) {
    return;
  }
  for (size_t i = 0; i < buf.live; ++i) {
    buf.spans[i].attrs.clear();
    buf.spans[i].events.clear();
  }
  buf.live = 0;
  buf.next_seq = 0;
  pool_.push_back(std::move(buf));
}

Span* SpanRecorder::FindLocked(uint64_t trace, uint64_t id) {
  if (id == 0) {
    return nullptr;
  }
  TraceBuf* buf = cached_buf_;
  if (buf == nullptr || cached_trace_ != trace) {
    auto it = open_.find(trace);
    if (it == open_.end()) {
      return nullptr;
    }
    buf = &it->second;
    cached_trace_ = trace;
    cached_buf_ = buf;
  }
  // Newest-first: events and attrs overwhelmingly target the span opened
  // most recently (ids are unique per trace, so order cannot change the
  // match).
  for (size_t i = buf->live; i-- > 0;) {
    if (buf->spans[i].id == id) {
      return &buf->spans[i];
    }
  }
  return nullptr;
}

void SpanRecorder::End(uint64_t trace, uint64_t id, uint64_t end_cycle) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* span = FindLocked(trace, id)) {
    span->end = end_cycle;
    span->open = false;
  }
}

void SpanRecorder::Attr(uint64_t trace, uint64_t id, const char* key,
                        uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span* span = FindLocked(trace, id);
  if (span == nullptr) {
    return;
  }
  for (auto& [k, v] : span->attrs) {
    if (std::strcmp(k, key) == 0) {
      v = value;
      return;
    }
  }
  span->attrs.emplace_back(key, value);
}

void SpanRecorder::Event(uint64_t trace, uint64_t id, const char* name,
                         uint64_t cycle) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Span* span = FindLocked(trace, id)) {
    span->events.push_back(SpanEvent{name, cycle});
  }
}

void SpanRecorder::CloseTrace(uint64_t trace, uint64_t start_cycle,
                              uint64_t end_cycle, bool breached,
                              const char* outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++traces_closed_;
  TraceSummary summary;
  summary.trace = trace;
  summary.start = start_cycle;
  summary.end = end_cycle;
  summary.breached = breached;
  summary.outcome = outcome;
  summaries_.push_back(summary);

  auto it = open_.find(trace);
  if (it == open_.end()) {
    return;
  }
  if (cached_buf_ == &it->second) {
    cached_buf_ = nullptr;
  }
  const bool keep = config_.mode == SpanMode::kAll || breached;
  if (keep) {
    // Trim recycled spare nodes so the retained ring holds only live
    // spans.
    it->second.spans.resize(it->second.live);
    retained_.push_back(std::move(it->second));
    if (retained_.size() > config_.max_traces) {
      RecycleLocked(std::move(retained_.front()));
      retained_.pop_front();
      ++traces_evicted_;
    }
  } else {
    RecycleLocked(std::move(it->second));
  }
  open_.erase(it);
}

void SpanRecorder::MergeFrom(SpanRecorder* shard) {
  if (shard == nullptr || shard == this) {
    return;
  }
  std::scoped_lock lock(mutex_, shard->mutex_);
  for (auto& [trace, buf] : shard->open_) {
    open_[trace] = std::move(buf);
  }
  shard->open_.clear();
  shard->cached_buf_ = nullptr;
  for (TraceBuf& buf : shard->retained_) {
    retained_.push_back(std::move(buf));
    if (retained_.size() > config_.max_traces) {
      RecycleLocked(std::move(retained_.front()));
      retained_.pop_front();
      ++traces_evicted_;
    }
  }
  shard->retained_.clear();
  summaries_.insert(summaries_.end(), shard->summaries_.begin(),
                    shard->summaries_.end());
  shard->summaries_.clear();
  traces_closed_ += shard->traces_closed_;
  traces_evicted_ += shard->traces_evicted_;
  spans_dropped_ += shard->spans_dropped_;
  shard->traces_closed_ = 0;
  shard->traces_evicted_ = 0;
  shard->spans_dropped_ = 0;
}

std::vector<const Span*> SpanRecorder::SortedSpansLocked() const {
  std::vector<const Span*> out;
  for (const TraceBuf& buf : retained_) {
    for (size_t i = 0; i < buf.live; ++i) {
      out.push_back(&buf.spans[i]);
    }
  }
  for (const auto& [trace, buf] : open_) {
    for (size_t i = 0; i < buf.live; ++i) {
      out.push_back(&buf.spans[i]);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    return a->trace != b->trace ? a->trace < b->trace : a->seq < b->seq;
  });
  return out;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<const Span*> sorted = SortedSpansLocked();
  std::vector<Span> out;
  out.reserve(sorted.size());
  for (const Span* span : sorted) {
    out.push_back(*span);
  }
  return out;
}

std::vector<TraceSummary> SpanRecorder::Summaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceSummary> out = summaries_;
  std::sort(out.begin(), out.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.trace < b.trace;
            });
  return out;
}

size_t SpanRecorder::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const TraceBuf& buf : retained_) {
    total += buf.live;
  }
  for (const auto& [trace, buf] : open_) {
    total += buf.live;
  }
  return total;
}

size_t SpanRecorder::num_open_traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.size();
}

size_t SpanRecorder::num_retained_traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_.size();
}

uint64_t SpanRecorder::traces_closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_closed_;
}

uint64_t SpanRecorder::traces_evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_evicted_;
}

uint64_t SpanRecorder::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_dropped_;
}

void SpanRecorder::WriteJsonMembers(JsonWriter* writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter& w = *writer;
  w.Key("config");
  w.BeginObject();
  w.Member("mode", config_.mode == SpanMode::kAll ? "all" : "breached");
  w.Member("max_traces", static_cast<uint64_t>(config_.max_traces));
  w.Member("max_spans_per_trace",
           static_cast<uint64_t>(config_.max_spans_per_trace));
  w.End();

  w.Key("counters");
  w.BeginObject();
  w.Member("traces_closed", traces_closed_);
  w.Member("traces_retained", static_cast<uint64_t>(retained_.size()));
  w.Member("traces_open", static_cast<uint64_t>(open_.size()));
  w.Member("traces_evicted", traces_evicted_);
  w.Member("spans_dropped", spans_dropped_);
  w.End();

  std::vector<const TraceSummary*> summaries;
  summaries.reserve(summaries_.size());
  for (const TraceSummary& s : summaries_) {
    summaries.push_back(&s);
  }
  std::sort(summaries.begin(), summaries.end(),
            [](const TraceSummary* a, const TraceSummary* b) {
              return a->trace < b->trace;
            });
  w.Key("summaries");
  w.BeginArray();
  for (const TraceSummary* s : summaries) {
    w.BeginObject();
    w.Member("trace", s->trace);
    w.Member("start", s->start);
    w.Member("end", s->end);
    w.Member("breached", s->breached);
    w.Member("outcome", s->outcome);
    w.End();
  }
  w.End();

  w.Key("spans");
  w.BeginArray();
  for (const Span* span : SortedSpansLocked()) {
    w.BeginObject();
    w.Member("trace", span->trace);
    w.Member("span", span->id);
    w.Member("parent", span->parent);
    w.Member("seq", span->seq);
    w.Member("name", span->name);
    w.Member("category", span->category);
    w.Member("board", span->board);
    w.Member("start", span->start);
    w.Member("end", span->end);
    w.Member("open", span->open);
    if (!span->attrs.empty()) {
      w.Key("attrs");
      w.BeginObject();
      for (const auto& [key, value] : span->attrs) {
        w.Member(key, value);
      }
      w.End();
    }
    if (!span->events.empty()) {
      w.Key("events");
      w.BeginArray();
      for (const SpanEvent& event : span->events) {
        w.BeginObject();
        w.Member("name", event.name);
        w.Member("at", event.at);
        w.End();
      }
      w.End();
    }
    w.End();
  }
  w.End();
}

std::string SpanRecorder::ToJsonString(int indent) const {
  JsonWriter writer(indent);
  writer.BeginObject();
  WriteJsonMembers(&writer);
  writer.End();
  return writer.Take();
}

}  // namespace lightrw::obs
