// Process-wide metrics registry.
//
// Every counted quantity in the simulators — cache probes, burst
// commands, DRAM bytes, per-stage stall cycles, per-worker step counts —
// can be published here under a stable dotted name plus a label set,
// e.g. "lightrw.cache.hits"{instance="2"}. Engines accept an optional
// registry pointer in their configs; a null registry costs one branch.
//
// Naming scheme (documented in README "Observability"):
//   <component>.<object>.<quantity>   all lowercase, dot-separated
//   labels identify the replica: instance=, worker=, board=, stage=
//
// Instruments:
//   Counter   monotonically increasing uint64 (atomic)
//   Gauge     last-written double (atomic)
//   Histogram SampleStats-backed distribution (mutex-protected)
//
// The registry itself is thread-safe: handles may be created and updated
// concurrently from the multithreaded baseline engine. Handles returned
// by the registry are owned by it and stay valid for its lifetime.
//
// Exposition: ToJsonString() (deterministic — metrics sorted by
// name+labels, counters emitted as exact integers) and ToPrometheusText()
// (the text/plain 0.0.4 format understood by Prometheus-compatible
// scrapers).

#ifndef LIGHTRW_OBS_METRICS_H_
#define LIGHTRW_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace lightrw::obs {

// Label set attached to one metric instance, e.g. {{"instance", "0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Prometheus exposition helpers, shared with the time-series exporter:
// dotted metric name -> underscore name, label-value escaping per the
// 0.0.4 spec (\\, \", \n), and a rendered {k="v",...} label block
// (empty string for an empty label set).
std::string PrometheusMetricName(const std::string& name);
void AppendPrometheusEscaped(std::string* out, const std::string& text);
std::string PrometheusLabelBlock(const Labels& labels);
// Appends "<name><suffix><labels> <value>", one sample line without its
// end: the caller adds a timestamp, exemplar or newline. Counts print as
// exact integers, other values in the JSON number form.
void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  uint64_t value);
void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  double value);

// Identity of one series: name + '\0' + serialized labels, unique and
// sort-stable. MetricsRegistry and TimeSeriesRecorder key their series
// by it, so both export in one order.
std::string MetricKey(const std::string& name, const Labels& labels);

class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // Returns the count and restarts it from zero: a time-series window's
  // delta (obs/timeseries.h).
  uint64_t Take() { return value_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class MetricsRegistry;

// Non-finite gauge writes are dropped: a NaN or Inf stored here would
// surface as an invalid token in JSON exposition. Registry-owned gauges
// count drops into the registry's "lightrw.obs.dropped_nonfinite"
// counter (created lazily, so clean runs expose no extra metric);
// free-standing gauges drop silently.
class Gauge {
 public:
  void Set(double value) {
    if (!std::isfinite(value)) {
      NoteDropped();
      return;
    }
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!std::isfinite(delta)) {
      NoteDropped();
      return;
    }
    // fetch_add on atomic<double> is C++20; keep a CAS loop for breadth
    // of toolchain support.
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void NoteDropped();

  std::atomic<double> value_{0.0};
  MetricsRegistry* owner_ = nullptr;  // set when registry-owned
};

class Histogram {
 public:
  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.Add(value);
  }
  // Copy of the accumulated distribution.
  SampleStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  mutable std::mutex mutex_;
  SampleStats stats_;
};

// Thread-safe registry of named instruments. Get* returns the existing
// instrument when (name, labels) was seen before, so independent call
// sites accumulate into the same counter.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  // Deterministic snapshot {"metrics": [...]}: an array of {name,
  // labels, type, value...} objects sorted by (name, labels), streamed
  // with a trailing newline. Histograms expose count/sum/min/max/p50/
  // p95/p99.
  std::string ToJsonString(int indent = 2) const;

  // Prometheus text exposition; dots in names become underscores.
  std::string ToPrometheusText() const;

  size_t NumMetrics() const;

 private:
  friend class Gauge;
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument* GetOrCreate(Kind kind, const std::string& name,
                          const Labels& labels);
  // Lazily creates the drop counter, so runs with no dropped writes keep
  // byte-identical exposition output.
  void NoteDroppedNonFinite();

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_METRICS_H_
