#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <utility>

#include "common/check.h"
#include "obs/json.h"

namespace lightrw::obs {

namespace {

// Incident detector constants: an open incident closes after this many
// consecutive calm windows, and the MAD is taken over this many
// trailing residuals.
constexpr uint32_t kIncidentCloseAfter = 2;
constexpr size_t kMadWindow = 16;

// Residual scale floor: keeps flat series (MAD == 0) from dividing by
// zero while still letting a burst register as a large finite z.
double RobustScale(double mad, double level) {
  return std::max(1.4826 * mad, 0.05 * std::max(std::abs(level), 1.0));
}

double MedianOf(std::deque<double> values) {
  LIGHTRW_CHECK(!values.empty());
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (n % 2 == 1) {
    return sorted[n / 2];
  }
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::string FormatAnnotation(const TsAnnotation& note) {
  std::string out = note.kind + "@" + std::to_string(note.cycle);
  if (!note.detail.empty()) {
    out += ' ';
    out += note.detail;
  }
  return out;
}

}  // namespace

std::vector<Incident> DetectSeriesIncidents(const std::string& series,
                                            const std::vector<double>& values) {
  std::vector<Incident> incidents;
  double level = 0.0;
  std::deque<double> residuals;
  bool open = false;
  Incident current;
  uint32_t calm = 0;
  for (size_t w = 0; w < values.size(); ++w) {
    const double x = values[w];
    const double residual = std::abs(x - level);
    double z = 0.0;
    if (w >= kAnomalyWarmup && !residuals.empty()) {
      z = (x - level) / RobustScale(MedianOf(residuals), level);
    }
    // Judge window w against the state built from windows < w, then
    // fold it in.
    if (!open) {
      if (std::abs(z) >= kAnomalyZOpen) {
        open = true;
        current = Incident{};
        current.series = series;
        current.open_window = w;
        current.close_window = w;
        current.severity = std::abs(z);
        calm = 0;
      }
    } else {
      current.severity = std::max(current.severity, std::abs(z));
      if (std::abs(z) < kAnomalyZClose) {
        ++calm;
        if (calm >= kIncidentCloseAfter) {
          current.close_window = w;
          current.closed = true;
          incidents.push_back(current);
          open = false;
        }
      } else {
        calm = 0;
      }
    }
    level += kAnomalyAlpha * (x - level);
    residuals.push_back(residual);
    while (residuals.size() > kMadWindow) {
      residuals.pop_front();
    }
  }
  if (open) {
    current.close_window = values.empty() ? 0 : values.size() - 1;
    current.closed = false;
    incidents.push_back(current);
  }
  return incidents;
}

void WindowedHistogram::Merge(const WindowedHistogram& other) {
  samples_.Merge(other.samples_);
  if (other.has_exemplar_) {
    Offer(other.worst_, other.trace_, other.span_);
  }
}

void WindowedHistogram::Offer(double value, uint64_t trace, uint64_t span) {
  const bool worse =
      !has_exemplar_ || value > worst_ ||
      (value == worst_ &&
       (trace < trace_ || (trace == trace_ && span < span_)));
  if (worse) {
    has_exemplar_ = true;
    worst_ = value;
    trace_ = trace;
    span_ = span;
  }
}

TimeSeriesRecorder::TimeSeriesRecorder(const TimeSeriesConfig& config)
    : config_(config) {
  LIGHTRW_CHECK(config_.scrape_interval > 0);
  LIGHTRW_CHECK(config_.max_windows > 0);
}

TimeSeriesRecorder::Series* TimeSeriesRecorder::GetSeries(
    int kind, const std::string& name, const Labels& labels) {
  const auto [it, created] = series_.try_emplace(MetricKey(name, labels));
  Series& series = it->second;
  if (created) {
    series.name = name;
    series.labels = labels;
    series.kind = kind;
    // Zero / empty in every retained window, so each series stays
    // dense over the window range.
    series.WithWindows(
        [n = window_end_.size()](auto& windows) { windows.resize(n); });
  }
  // Re-registering a name with a different kind is a programming error.
  LIGHTRW_CHECK(series.kind == kind);
  return &series;
}

Counter* TimeSeriesRecorder::GetCounter(const std::string& name,
                                        const Labels& labels) {
  return &GetSeries(0, name, labels)->counter;
}

Gauge* TimeSeriesRecorder::GetGauge(const std::string& name,
                                    const Labels& labels) {
  return &GetSeries(1, name, labels)->gauge;
}

WindowedHistogram* TimeSeriesRecorder::GetHistogram(const std::string& name,
                                                    const Labels& labels) {
  return &GetSeries(2, name, labels)->histogram;
}

void TimeSeriesRecorder::Annotate(const std::string& kind, uint64_t cycle,
                                  const std::string& detail) {
  annotations_.push_back(TsAnnotation{kind, cycle, detail});
}

void TimeSeriesRecorder::CloseWindow(uint64_t end_cycle) {
  for (auto& [key, series] : series_) {
    switch (series.kind) {
      case 0:
        series.counter_delta.push_back(series.counter.Take());
        break;
      case 1:
        series.gauge_last.push_back(series.gauge.value());
        break;
      default:
        series.hist_window.push_back(std::exchange(series.histogram, {}));
        break;
    }
  }
  window_end_.push_back(end_cycle);
  final_cycle_ = std::max(final_cycle_, end_cycle);
}

void TimeSeriesRecorder::TrimToRing() {
  if (window_end_.size() > config_.max_windows) {
    DropOldestWindows(window_end_.size() - config_.max_windows);
  }
}

void TimeSeriesRecorder::DropOldestWindows(size_t n) {
  const auto drop = [n](auto& windows) {
    windows.erase(windows.begin(), windows.begin() + n);
  };
  drop(window_end_);
  for (auto& [key, series] : series_) {
    series.WithWindows(drop);
  }
  first_window_ += n;
}

void TimeSeriesRecorder::AdvanceTo(uint64_t cycle) {
  if (finished_) {
    return;
  }
  // Windows [open, end) have their boundary at or before `cycle`.
  const uint64_t interval = config_.scrape_interval;
  const uint64_t open = first_window_ + window_end_.size();
  const uint64_t end = cycle / interval;
  if (end <= open) {
    return;
  }
  // The first window carries every update since the last boundary. The
  // rest are idle (nothing changes between events), so the ones the
  // ring would evict are skipped instead of closed.
  CloseWindow((open + 1) * interval);
  if (end - (open + 1) > config_.max_windows) {
    DropOldestWindows(window_end_.size());
    first_window_ = end - config_.max_windows;
  }
  for (uint64_t w = first_window_ + window_end_.size(); w < end; ++w) {
    CloseWindow((w + 1) * interval);
  }
  TrimToRing();
}

void TimeSeriesRecorder::Finish(uint64_t cycle) {
  if (finished_) {
    return;
  }
  AdvanceTo(cycle);
  // Always close one final window so updates at or after the last full
  // boundary (events processed at exactly the boundary cycle belong to
  // the next window) are captured. It may be partial or even empty.
  const uint64_t start =
      (first_window_ + window_end_.size()) * config_.scrape_interval;
  CloseWindow(std::max(cycle, start));
  TrimToRing();
  finished_ = true;
}

void TimeSeriesRecorder::MergeFrom(const TimeSeriesRecorder* shard) {
  LIGHTRW_CHECK(shard != nullptr);
  LIGHTRW_CHECK(shard->config_.scrape_interval == config_.scrape_interval);
  // Windows align by global index. A ring that evicted holds nothing for
  // the windows it dropped, so the merged ring starts at the latest
  // first window: every window it keeps has every recorder's data. Both
  // rings hold at most max_windows, and so does [first, end).
  const uint64_t first = std::max(first_window_, shard->first_window_);
  const uint64_t end =
      std::max(first_window_ + window_end_.size(),
               shard->first_window_ + shard->window_end_.size());
  DropOldestWindows(std::min<uint64_t>(first - first_window_,
                                       window_end_.size()));
  first_window_ = first;
  const size_t target = end - first;
  // The shard's window w lands in slot w - skip.
  const size_t skip = first - shard->first_window_;
  // Grow the window index first, taking the later end per slot.
  window_end_.resize(target, 0);
  for (size_t w = skip; w < shard->window_end_.size(); ++w) {
    window_end_[w - skip] =
        std::max(window_end_[w - skip], shard->window_end_[w]);
  }
  // Pad every local series to the merged window count; shards that
  // closed fewer windows contribute zero deltas / empty histograms.
  for (auto& [key, series] : series_) {
    series.WithWindows([target](auto& windows) { windows.resize(target); });
  }
  for (const auto& [key, other] : shard->series_) {
    Series& series = *GetSeries(other.kind, other.name, other.labels);
    switch (other.kind) {
      case 0:
        for (size_t w = skip; w < other.counter_delta.size(); ++w) {
          series.counter_delta[w - skip] += other.counter_delta[w];
        }
        break;
      case 1:
        // Shards cover disjoint replicas; the merged gauge is the sum
        // (e.g. per-shard inflight adds up to cluster inflight).
        for (size_t w = skip; w < other.gauge_last.size(); ++w) {
          series.gauge_last[w - skip] += other.gauge_last[w];
        }
        break;
      default:
        for (size_t w = skip; w < other.hist_window.size(); ++w) {
          series.hist_window[w - skip].Merge(other.hist_window[w]);
        }
        break;
    }
  }
  annotations_.insert(annotations_.end(), shard->annotations_.begin(),
                      shard->annotations_.end());
  final_cycle_ = std::max(final_cycle_, shard->final_cycle_);
  finished_ = finished_ || shard->finished_;
}

std::string TimeSeriesRecorder::RenderSeriesId(const Series& series) {
  std::string out = series.name;
  if (!series.labels.empty()) {
    out += '{';
    for (size_t i = 0; i < series.labels.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += series.labels[i].first;
      out += '=';
      out += series.labels[i].second;
    }
    out += '}';
  }
  return out;
}

double TimeSeriesRecorder::DetectorValue(const Series& series, size_t w) {
  switch (series.kind) {
    case 0:
      return static_cast<double>(series.counter_delta[w]);
    case 1:
      return series.gauge_last[w];
    default:
      return series.hist_window[w].samples_.count() == 0
                 ? 0.0
                 : series.hist_window[w].samples_.Quantile(0.99);
  }
}

std::vector<TsAnnotation> TimeSeriesRecorder::SortedAnnotations() const {
  std::vector<TsAnnotation> sorted = annotations_;
  std::sort(sorted.begin(), sorted.end(),
            [](const TsAnnotation& a, const TsAnnotation& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.detail < b.detail;
            });
  return sorted;
}

std::vector<Incident> TimeSeriesRecorder::DetectIncidents() const {
  std::vector<Incident> incidents;
  const std::vector<TsAnnotation> notes = SortedAnnotations();
  for (const auto& [key, series] : series_) {
    std::vector<double> values(window_end_.size());
    for (size_t w = 0; w < values.size(); ++w) {
      values[w] = DetectorValue(series, w);
    }
    std::vector<Incident> found =
        DetectSeriesIncidents(RenderSeriesId(series), values);
    for (Incident& incident : found) {
      incident.open_window += first_window_;
      incident.close_window += first_window_;
      // Cross-annotate: every fault/membership/slo_burn event whose
      // cycle falls inside the incident's covered cycle range.
      const uint64_t open_cycle =
          incident.open_window * config_.scrape_interval;
      const uint64_t close_cycle =
          window_end_[incident.close_window - first_window_];
      for (const TsAnnotation& note : notes) {
        if (note.cycle >= open_cycle && note.cycle <= close_cycle) {
          incident.annotations.push_back(FormatAnnotation(note));
        }
      }
      incidents.push_back(std::move(incident));
    }
  }
  std::sort(incidents.begin(), incidents.end(),
            [](const Incident& a, const Incident& b) {
              if (a.open_window != b.open_window) {
                return a.open_window < b.open_window;
              }
              return a.series < b.series;
            });
  return incidents;
}

std::string TimeSeriesRecorder::ToJsonString(int indent) const {
  JsonWriter json(indent);
  json.BeginObject();
  json.Member("schema", "timeseries.v1");
  json.Member("scrape_interval", config_.scrape_interval);
  json.Member("first_window", first_window_);
  json.Member("windows", static_cast<uint64_t>(window_end_.size()));
  json.Member("final_cycle", final_cycle_);
  json.Key("window_end");
  json.BeginArray();
  for (const uint64_t end : window_end_) {
    json.Value(end);
  }
  json.End();

  json.Key("series");
  json.BeginArray();
  for (const auto& [key, series] : series_) {
    json.BeginObject();
    json.Member("name", series.name);
    if (!series.labels.empty()) {
      json.Key("labels");
      json.BeginObject();
      for (const auto& [k, v] : series.labels) {
        json.Member(k, v);
      }
      json.End();
    }
    json.Member("kind", series.kind == 0   ? "counter"
                        : series.kind == 1 ? "gauge"
                                           : "histogram");
    json.Key("points");
    json.BeginArray();
    for (size_t w = 0; w < window_end_.size(); ++w) {
      json.BeginObject();
      json.Member("w", first_window_ + w);
      switch (series.kind) {
        case 0: {
          json.Member("delta", series.counter_delta[w]);
          const uint64_t start =
              (first_window_ + w) * config_.scrape_interval;
          const double span =
              static_cast<double>(window_end_[w]) - static_cast<double>(start);
          json.Member("rate_per_kcycle",
                      span > 0.0 ? series.counter_delta[w] * 1000.0 / span
                                 : 0.0);
          break;
        }
        case 1:
          json.Member("value", series.gauge_last[w]);
          break;
        default: {
          const WindowedHistogram& window = series.hist_window[w];
          const SampleStats& stats = window.samples_;
          json.Member("count", static_cast<uint64_t>(stats.count()));
          if (stats.count() > 0) {
            json.Member("sum", stats.sum());
            json.Member("p50", stats.Quantile(0.5));
            json.Member("p99", stats.Quantile(0.99));
          }
          if (window.has_exemplar_) {
            json.Key("exemplar");
            json.BeginObject();
            json.Member("trace", window.trace_);
            json.Member("span", window.span_);
            json.Member("value", window.worst_);
            json.End();
          }
          break;
        }
      }
      json.End();
    }
    json.End();
    json.End();
  }
  json.End();

  json.Key("annotations");
  json.BeginArray();
  for (const TsAnnotation& note : SortedAnnotations()) {
    json.BeginObject();
    json.Member("kind", note.kind);
    json.Member("cycle", note.cycle);
    if (!note.detail.empty()) {
      json.Member("detail", note.detail);
    }
    json.End();
  }
  json.End();

  json.Key("incidents");
  json.BeginArray();
  for (const Incident& incident : DetectIncidents()) {
    json.BeginObject();
    json.Member("series", incident.series);
    json.Member("open_window", incident.open_window);
    json.Member("close_window", incident.close_window);
    json.Member("closed", incident.closed);
    json.Member("severity", incident.severity);
    if (!incident.annotations.empty()) {
      json.Key("annotations");
      json.BeginArray();
      for (const std::string& a : incident.annotations) {
        json.Value(a);
      }
      json.End();
    }
    json.End();
  }
  json.End();
  json.End();
  std::string out = json.Take();
  out += '\n';
  return out;
}

std::string TimeSeriesRecorder::ToOpenMetricsText() const {
  std::string out;
  // Ends a sample line with its timestamp.
  const auto end_line = [&out](uint64_t timestamp) {
    out += ' ';
    out += std::to_string(timestamp);
    out += '\n';
  };
  for (const auto& [key, series] : series_) {
    const std::string pname = PrometheusMetricName(series.name);
    const std::string labels = PrometheusLabelBlock(series.labels);
    switch (series.kind) {
      case 0: {
        out += "# TYPE " + pname + " counter\n";
        uint64_t cumulative = 0;
        for (size_t w = 0; w < window_end_.size(); ++w) {
          cumulative += series.counter_delta[w];
          AppendSample(&out, pname, "_total", labels, cumulative);
          end_line(window_end_[w]);
        }
        break;
      }
      case 1: {
        out += "# TYPE " + pname + " gauge\n";
        for (size_t w = 0; w < window_end_.size(); ++w) {
          AppendSample(&out, pname, "", labels, series.gauge_last[w]);
          end_line(window_end_[w]);
        }
        break;
      }
      default: {
        // OpenMetrics allows exemplars on counters (not gauges or
        // summaries), so the windowed count is exposed as a counter
        // carrying the window's worst-sample exemplar, and the windowed
        // quantiles as plain gauges.
        out += "# TYPE " + pname + "_count counter\n";
        uint64_t cumulative = 0;
        for (size_t w = 0; w < window_end_.size(); ++w) {
          const WindowedHistogram& window = series.hist_window[w];
          cumulative += window.samples_.count();
          AppendSample(&out, pname, "_count_total", labels, cumulative);
          if (window.has_exemplar_) {
            out += ' ' + std::to_string(window_end_[w]) + " # {trace_id=\"" +
                   std::to_string(window.trace_) + "\",span_id=\"" +
                   std::to_string(window.span_) + "\"} ";
            AppendJsonDouble(&out, window.worst_);
          }
          end_line(window_end_[w]);
        }
        for (const double q : {0.5, 0.99}) {
          const std::string suffix = q == 0.5 ? "_p50" : "_p99";
          out += "# TYPE " + pname + suffix + " gauge\n";
          for (size_t w = 0; w < window_end_.size(); ++w) {
            const SampleStats& stats = series.hist_window[w].samples_;
            if (stats.count() == 0) {
              continue;
            }
            AppendSample(&out, pname, suffix, labels, stats.Quantile(q));
            end_line(window_end_[w]);
          }
        }
        break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string TimeSeriesRecorder::FormatTimelineSection() const {
  if (window_end_.empty()) {
    return "";
  }
  // Headline columns: the three most active counter series by total
  // delta (ties break by name so the layout is deterministic).
  std::vector<std::pair<uint64_t, const Series*>> counters;
  for (const auto& [key, series] : series_) {
    if (series.kind != 0) {
      continue;
    }
    uint64_t total = 0;
    for (const uint64_t d : series.counter_delta) {
      total += d;
    }
    counters.emplace_back(total, &series);
  }
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->name < b.second->name;
            });
  if (counters.size() > 3) {
    counters.resize(3);
  }

  const std::vector<Incident> incidents = DetectIncidents();
  const std::vector<TsAnnotation> notes = SortedAnnotations();

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "telemetry timeline: %zu windows of %llu cycles, "
                "%zu incident(s)\n",
                window_end_.size(),
                static_cast<unsigned long long>(config_.scrape_interval),
                incidents.size());
  out += line;
  std::string header = "      w  cycle-range         ";
  for (const auto& [total, series] : counters) {
    std::snprintf(line, sizeof(line), " %18s",
                  RenderSeriesId(*series).substr(0, 18).c_str());
    header += line;
  }
  header += "  events\n";
  out += header;

  const size_t n = window_end_.size();
  const bool elide = n > 36;
  for (size_t w = 0; w < n; ++w) {
    if (elide && w == 16) {
      std::snprintf(line, sizeof(line), "    ... (%zu windows elided) ...\n",
                    n - 32);
      out += line;
      w = n - 16 - 1;
      continue;
    }
    const uint64_t global = first_window_ + w;
    const uint64_t start = global * config_.scrape_interval;
    std::snprintf(line, sizeof(line), "  %5llu  [%llu,%llu]",
                  static_cast<unsigned long long>(global),
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(window_end_[w]));
    std::string row = line;
    row.resize(std::max<size_t>(row.size(), 29), ' ');
    for (const auto& [total, series] : counters) {
      std::snprintf(line, sizeof(line), " %18llu",
                    static_cast<unsigned long long>(
                        series->counter_delta[w]));
      row += line;
    }
    std::string events;
    for (const TsAnnotation& note : notes) {
      if (note.cycle >= start && note.cycle <= window_end_[w]) {
        if (!events.empty()) {
          events += "; ";
        }
        events += FormatAnnotation(note);
      }
    }
    for (const Incident& incident : incidents) {
      if (incident.open_window == global) {
        if (!events.empty()) {
          events += "; ";
        }
        std::snprintf(line, sizeof(line), "incident open %s (z=%.1f)",
                      incident.series.c_str(), incident.severity);
        events += line;
      }
      if (incident.closed && incident.close_window == global) {
        if (!events.empty()) {
          events += "; ";
        }
        events += "incident close " + incident.series;
      }
    }
    if (!events.empty()) {
      row += "  ";
      row += events;
    }
    row += '\n';
    out += row;
  }
  return out;
}

}  // namespace lightrw::obs
