#include "obs/metrics.h"

#include <algorithm>
#include <charconv>

#include "common/check.h"
#include "obs/json.h"

namespace lightrw::obs {

// Label values are escaped per the Prometheus 0.0.4 exposition spec:
// backslash, double-quote, and line-feed are the three characters with
// structural meaning inside a quoted label value.
void AppendPrometheusEscaped(std::string* out, const std::string& text) {
  for (const char c : text) {
    if (c == '\n') {
      *out += "\\n";
      continue;
    }
    if (c == '\\' || c == '"') {
      *out += '\\';
    }
    *out += c;
  }
}

std::string PrometheusMetricName(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string PrometheusLabelBlock(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += "=\"";
    AppendPrometheusEscaped(&out, labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  uint64_t value) {
  *out += name;
  *out += suffix;
  *out += labels;
  *out += ' ';
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

void AppendSample(std::string* out, std::string_view name,
                  std::string_view suffix, std::string_view labels,
                  double value) {
  *out += name;
  *out += suffix;
  *out += labels;
  *out += ' ';
  AppendJsonDouble(out, value);
}

std::string MetricKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\1';
    key += v;
  }
  return key;
}

MetricsRegistry::Instrument* MetricsRegistry::GetOrCreate(
    Kind kind, const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = MetricKey(name, labels);
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument instrument;
    instrument.kind = kind;
    instrument.name = name;
    instrument.labels = labels;
    switch (kind) {
      case Kind::kCounter:
        instrument.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        instrument.gauge = std::make_unique<Gauge>();
        instrument.gauge->owner_ = this;
        break;
      case Kind::kHistogram:
        instrument.histogram = std::make_unique<Histogram>();
        break;
    }
    it = instruments_.emplace(key, std::move(instrument)).first;
  }
  // Re-registering a name with a different instrument kind is a
  // programming error.
  LIGHTRW_CHECK(it->second.kind == kind);
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return GetOrCreate(Kind::kCounter, name, labels)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return GetOrCreate(Kind::kGauge, name, labels)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetOrCreate(Kind::kHistogram, name, labels)->histogram.get();
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return instruments_.size();
}

void Gauge::NoteDropped() {
  if (owner_ != nullptr) {
    owner_->NoteDroppedNonFinite();
  }
}

void MetricsRegistry::NoteDroppedNonFinite() {
  GetCounter("lightrw.obs.dropped_nonfinite")->Increment();
}

std::string MetricsRegistry::ToJsonString(int indent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w(indent);
  w.BeginObject();
  w.Key("metrics");
  w.BeginArray();
  // instruments_ is a std::map keyed by (name, labels): iteration order,
  // and therefore the emitted document, is deterministic.
  for (const auto& [key, instrument] : instruments_) {
    w.BeginObject();
    w.Member("name", instrument.name);
    if (!instrument.labels.empty()) {
      w.Key("labels");
      w.BeginObject();
      for (const auto& [k, v] : instrument.labels) {
        w.Member(k, v);
      }
      w.End();
    }
    switch (instrument.kind) {
      case Kind::kCounter:
        w.Member("type", "counter");
        w.Member("value", instrument.counter->value());
        break;
      case Kind::kGauge:
        w.Member("type", "gauge");
        w.Member("value", instrument.gauge->value());
        break;
      case Kind::kHistogram: {
        w.Member("type", "histogram");
        const SampleStats stats = instrument.histogram->Snapshot();
        w.Member("count", static_cast<uint64_t>(stats.count()));
        w.Member("sum", stats.sum());
        w.Member("min", stats.Min());
        w.Member("max", stats.Max());
        w.Member("p50", stats.Quantile(0.5));
        w.Member("p95", stats.Quantile(0.95));
        w.Member("p99", stats.Quantile(0.99));
        break;
      }
    }
    w.End();
  }
  w.End();
  w.End();
  std::string out = w.Take();
  out += '\n';
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string previous_name;
  for (const auto& [key, instrument] : instruments_) {
    const std::string name = PrometheusMetricName(instrument.name);
    const std::string labels = PrometheusLabelBlock(instrument.labels);
    if (name != previous_name) {
      // HELP text is the original dotted name — the stable identifier
      // call sites register under (README "Observability" naming
      // scheme). Escaped per the 0.0.4 spec (\\ and \n).
      out += "# HELP " + name + ' ';
      for (const char c : instrument.name) {
        if (c == '\n') {
          out += "\\n";
        } else if (c == '\\') {
          out += "\\\\";
        } else {
          out += c;
        }
      }
      out += '\n';
      out += "# TYPE " + name + ' ';
      switch (instrument.kind) {
        case Kind::kCounter:
          out += "counter";
          break;
        case Kind::kGauge:
          out += "gauge";
          break;
        case Kind::kHistogram:
          out += "summary";
          break;
      }
      out += '\n';
      previous_name = name;
    }
    switch (instrument.kind) {
      case Kind::kCounter:
        AppendSample(&out, name, "", labels, instrument.counter->value());
        out += '\n';
        break;
      case Kind::kGauge:
        AppendSample(&out, name, "", labels, instrument.gauge->value());
        out += '\n';
        break;
      case Kind::kHistogram: {
        const SampleStats stats = instrument.histogram->Snapshot();
        for (const double q : {0.5, 0.95, 0.99}) {
          // The label block, reopened for a quantile pair.
          std::string quantile_labels = labels.empty() ? "{" : labels;
          if (!labels.empty()) {
            quantile_labels.back() = ',';
          }
          quantile_labels += "quantile=\"";
          AppendJsonDouble(&quantile_labels, q);
          quantile_labels += "\"}";
          AppendSample(&out, name, "", quantile_labels, stats.Quantile(q));
          out += '\n';
        }
        AppendSample(&out, name, "_sum", labels, stats.sum());
        out += '\n';
        AppendSample(&out, name, "_count", labels,
                     static_cast<uint64_t>(stats.count()));
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace lightrw::obs
