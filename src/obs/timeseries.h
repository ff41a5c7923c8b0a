// Simulated-time telemetry: windowed time series, histogram exemplars,
// and incident detection.
//
// Every other observability surface describes a run at its end (metrics
// snapshots) or per query (spans); this module shows how throughput,
// queue depth, and fault pressure evolve over *simulated* time. A
// TimeSeriesRecorder owns its series: engines update them on their hot
// paths through cached handles (GetCounter/GetGauge/GetHistogram), and
// the recorder closes a window at every multiple of a configurable
// cycle interval:
//
//   window k covers simulated cycles [k*W, (k+1)*W)
//   counter   -> delta (and rate) per window
//   gauge     -> last value at the window boundary
//   histogram -> windowed count/sum/p50/p99 from the samples observed
//                inside the window, plus an exemplar: the (trace_id,
//                span_id, value) of the worst sample in the window, so
//                a latency spike links directly to its span tree
//
// Windows are closed by the engines' own event loops: before an event
// at cycle c is processed, AdvanceTo(c) closes every window boundary
// <= c (between events nothing changes, so the boundary state is
// captured exactly); Finish(c) closes the final, possibly partial,
// window. The result is a pure function of the configuration.
//
// Determinism across host thread counts follows the SpanRecorder
// discipline: sharded engines give every shard a private recorder and
// merge them in fixed shard order with MergeFrom() — per-window counter
// deltas and gauge values add, histogram windows merge their samples,
// exemplars keep the worst (ties break toward the lower trace id, then
// the lower span id). Output is byte-identical at 1 and 4 sim threads.
//
// On top of the series, an AnomalyDetector computes a per-series robust
// z-score (EWMA level, MAD-scaled residuals, warmup-gated) and emits
// deterministic Incident{series, window, severity, open/close} records,
// cross-annotated against fault/membership/slo_burn events the engines
// reported via Annotate(). Exports: deterministic JSON (schema
// "timeseries.v1"), OpenMetrics text with exemplars, and a plain-text
// timeline section for FormatRunReport.

#ifndef LIGHTRW_OBS_TIMESERIES_H_
#define LIGHTRW_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/metrics.h"

namespace lightrw::obs {

struct TimeSeriesConfig {
  // Simulated cycles per window. Must be > 0.
  uint64_t scrape_interval = 4096;
  // Ring-buffer capacity: when more windows close, the oldest are
  // dropped and first_window advances.
  uint64_t max_windows = 4096;
};

// Anomaly detection (see DetectSeriesIncidents below).
inline constexpr double kAnomalyAlpha = 0.3;    // EWMA smoothing factor
inline constexpr double kAnomalyZOpen = 6.0;    // |z| >= this opens
inline constexpr double kAnomalyZClose = 3.0;   // |z| < this is calm
inline constexpr uint32_t kAnomalyWarmup = 4;   // windows before arming

// One fault/membership/slo_burn event reported by an engine (or the
// tool) for cross-annotation against incidents.
struct TsAnnotation {
  std::string kind;  // e.g. "board_death", "rebuild_complete", "slo_burn"
  uint64_t cycle = 0;
  std::string detail;
};

// A contiguous anomalous stretch of one series.
struct Incident {
  std::string series;  // rendered "name{k=v,...}" identity
  uint64_t open_window = 0;
  uint64_t close_window = 0;  // last window of the incident (see closed)
  bool closed = false;        // false: still open at end of run
  double severity = 0.0;      // max |z| observed while open
  std::vector<std::string> annotations;  // "kind@cycle detail" overlaps
};

// Robust per-series detector, usable standalone for tests: EWMA level,
// residual scale = max(1.4826 * MAD, 0.05 * max(|level|, 1)) — the
// floor keeps quiet series (fault counters that sit at zero) from
// dividing by zero while still letting a burst register as a large,
// finite z. Values at window w are judged against the state built from
// windows < w (the MAD over the last 16 residuals), then folded in;
// detection is armed after kAnomalyWarmup windows and an incident closes
// after 2 consecutive calm windows.
std::vector<Incident> DetectSeriesIncidents(const std::string& series,
                                            const std::vector<double>& values);

// The histogram handle of a TimeSeriesRecorder series: the samples of
// one window and the exemplar of its worst sample.
class WindowedHistogram {
 public:
  // Adds a sample with the trace and span it came from (0 when the
  // producer records no spans).
  void Observe(double value, uint64_t trace, uint64_t span) {
    samples_.Add(value);
    Offer(value, trace, span);
  }

 private:
  friend class TimeSeriesRecorder;
  // Folds another window in: samples append, the worst sample re-picks.
  void Merge(const WindowedHistogram& other);
  // Keeps (value, trace, span) as the exemplar if it is worse than the
  // current one: a larger value, ties toward the lower trace id, then
  // the lower span id.
  void Offer(double value, uint64_t trace, uint64_t span);

  SampleStats samples_;
  bool has_exemplar_ = false;
  double worst_ = 0.0;
  uint64_t trace_ = 0;
  uint64_t span_ = 0;
};

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(const TimeSeriesConfig& config = {});

  const TimeSeriesConfig& config() const { return config_; }
  uint64_t scrape_interval() const { return config_.scrape_interval; }

  // Handles engines update on their hot paths, owned by the recorder and
  // valid for its lifetime. A repeated (name, labels) returns the
  // existing series; a series created after windows closed reads zero
  // (or empty) in them. A recorder has one writer thread: sharded
  // engines give each shard its own and merge them (MergeFrom).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  WindowedHistogram* GetHistogram(const std::string& name,
                                  const Labels& labels = {});

  // Close every window whose boundary is <= cycle. Engines call this
  // from their event loops before processing an event at `cycle`.
  void AdvanceTo(uint64_t cycle);
  // Close the final (possibly partial) window ending at `cycle`.
  void Finish(uint64_t cycle);

  // Report a fault/membership/slo_burn event for incident annotation.
  void Annotate(const std::string& kind, uint64_t cycle,
                const std::string& detail);

  // Fold a shard recorder into this one (fixed shard order at the call
  // site). Windows align by global index; the merged ring starts at the
  // later of the two first windows, so a ring that evicted never leaves
  // a partial window. Window counts may differ between shards; missing
  // windows contribute zero deltas / empty histograms.
  void MergeFrom(const TimeSeriesRecorder* shard);

  uint64_t num_windows() const { return window_end_.size(); }
  uint64_t final_cycle() const { return final_cycle_; }

  // Deterministic incident sweep over every series (counter -> delta,
  // gauge -> last value, histogram -> windowed p99).
  std::vector<Incident> DetectIncidents() const;

  // Exports. ToJsonString streams schema "timeseries.v1" (with a
  // trailing newline); ToOpenMetricsText emits OpenMetrics-style text
  // whose timestamps are simulated window end cycles and whose exemplars
  // use trace_id/span_id labels, ending with "# EOF".
  std::string ToJsonString(int indent = 2) const;
  std::string ToOpenMetricsText() const;
  // Plain-text "telemetry timeline" section for FormatRunReport: per
  // window, the rates of the most active counter series plus incident
  // and annotation markers. Empty when no window was ever closed.
  std::string FormatTimelineSection() const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    int kind = 0;  // 0 counter, 1 gauge, 2 histogram
    // The live handle of the series' kind; the open window's updates.
    Counter counter;
    Gauge gauge;
    WindowedHistogram histogram;
    // Dense per closed window (ring offset first_window_):
    std::vector<uint64_t> counter_delta;          // kind 0
    std::vector<double> gauge_last;               // kind 1
    std::vector<WindowedHistogram> hist_window;   // kind 2

    // Calls fn on the closed-window vector of the series' kind.
    template <typename Fn>
    void WithWindows(Fn&& fn) {
      switch (kind) {
        case 0:
          fn(counter_delta);
          break;
        case 1:
          fn(gauge_last);
          break;
        default:
          fn(hist_window);
          break;
      }
    }
  };

  // The series for (name, labels), created with zero / empty windows
  // for every retained window if new.
  Series* GetSeries(int kind, const std::string& name, const Labels& labels);
  static std::string RenderSeriesId(const Series& series);
  // Per-window scalar fed to the anomaly detector.
  static double DetectorValue(const Series& series, size_t w);
  // Appends one window ending at end_cycle; the caller trims the ring.
  void CloseWindow(uint64_t end_cycle);
  void TrimToRing();
  // Drops the n oldest retained windows (n <= num_windows()).
  void DropOldestWindows(size_t n);
  std::vector<TsAnnotation> SortedAnnotations() const;

  TimeSeriesConfig config_;
  // Keyed by MetricKey (name + labels), as MetricsRegistry is, so shard
  // merges and exports iterate in one deterministic order.
  std::map<std::string, Series> series_;
  // End cycle of each retained window; window w (global index
  // first_window_ + i) covers [start, window_end_[i]] where start is
  // w * scrape_interval.
  std::vector<uint64_t> window_end_;
  uint64_t first_window_ = 0;
  uint64_t final_cycle_ = 0;
  bool finished_ = false;
  std::vector<TsAnnotation> annotations_;
};

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_TIMESERIES_H_
