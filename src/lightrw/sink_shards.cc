#include "lightrw/sink_shards.h"

#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lightrw::core {

struct SinkShards::Recorders {
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::SpanRecorder> spans;
  std::unique_ptr<obs::TimeSeriesRecorder> timeseries;
};

SinkShards::SinkShards(const AcceleratorConfig& shared, size_t num_shards)
    : shared_(shared) {
  if (num_shards <= 1) {
    return;
  }
  shards_.resize(num_shards);
  for (Recorders& r : shards_) {
    if (shared.trace != nullptr) {
      r.trace = std::make_unique<obs::TraceRecorder>(shared.trace->config());
    }
    if (shared.spans != nullptr) {
      r.spans = std::make_unique<obs::SpanRecorder>(shared.spans->config());
    }
    if (shared.timeseries != nullptr) {
      r.timeseries = std::make_unique<obs::TimeSeriesRecorder>(
          shared.timeseries->config());
    }
  }
}

SinkShards::~SinkShards() = default;

AcceleratorConfig SinkShards::Shard(size_t i) const {
  AcceleratorConfig config = shared_;
  if (!shards_.empty()) {
    config.trace = shards_[i].trace.get();
    config.spans = shards_[i].spans.get();
    config.timeseries = shards_[i].timeseries.get();
  }
  return config;
}

void SinkShards::Merge() {
  for (Recorders& r : shards_) {
    if (r.trace != nullptr) {
      shared_.trace->MergeFrom(r.trace.get());
    }
    if (r.spans != nullptr) {
      shared_.spans->MergeFrom(r.spans.get());
    }
    if (r.timeseries != nullptr) {
      shared_.timeseries->MergeFrom(r.timeseries.get());
    }
  }
}

}  // namespace lightrw::core
