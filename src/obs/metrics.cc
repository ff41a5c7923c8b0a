#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

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

namespace {

std::string PrometheusName(const std::string& name) {
  return PrometheusMetricName(name);
}

std::string PrometheusLabels(const Labels& labels) {
  return PrometheusLabelBlock(labels);
}

// Labels with one extra pair appended (for histogram quantile series).
std::string PrometheusLabelsPlus(const Labels& labels,
                                 const std::string& key,
                                 const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return PrometheusLabels(extended);
}

void AppendNumber(std::string* out, double value) {
  // Prometheus accepts Go-style floats; reuse the JSON encoder.
  *out += Json(value).Dump();
}

}  // namespace

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

Json MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json metrics = Json::MakeArray();
  // instruments_ is a std::map keyed by (name, labels): iteration order,
  // and therefore the emitted document, is deterministic.
  for (const auto& [key, instrument] : instruments_) {
    Json entry = Json::MakeObject();
    entry.Set("name", instrument.name);
    if (!instrument.labels.empty()) {
      Json labels = Json::MakeObject();
      for (const auto& [k, v] : instrument.labels) {
        labels.Set(k, v);
      }
      entry.Set("labels", std::move(labels));
    }
    switch (instrument.kind) {
      case Kind::kCounter:
        entry.Set("type", "counter");
        entry.Set("value", instrument.counter->value());
        break;
      case Kind::kGauge:
        entry.Set("type", "gauge");
        entry.Set("value", instrument.gauge->value());
        break;
      case Kind::kHistogram: {
        entry.Set("type", "histogram");
        const SampleStats stats = instrument.histogram->Snapshot();
        entry.Set("count", static_cast<uint64_t>(stats.count()));
        entry.Set("sum", stats.sum());
        entry.Set("min", stats.Min());
        entry.Set("max", stats.Max());
        entry.Set("p50", stats.Quantile(0.5));
        entry.Set("p95", stats.Quantile(0.95));
        entry.Set("p99", stats.Quantile(0.99));
        break;
      }
    }
    metrics.Append(std::move(entry));
  }
  Json doc = Json::MakeObject();
  doc.Set("metrics", std::move(metrics));
  return doc;
}

std::string MetricsRegistry::ToJsonString(int indent) const {
  std::string out = ToJson().Dump(indent);
  out += '\n';
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string previous_name;
  for (const auto& [key, instrument] : instruments_) {
    const std::string name = PrometheusName(instrument.name);
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
        out += name + PrometheusLabels(instrument.labels) + ' ' +
               std::to_string(instrument.counter->value()) + '\n';
        break;
      case Kind::kGauge:
        out += name + PrometheusLabels(instrument.labels) + ' ';
        AppendNumber(&out, instrument.gauge->value());
        out += '\n';
        break;
      case Kind::kHistogram: {
        const SampleStats stats = instrument.histogram->Snapshot();
        for (const double q : {0.5, 0.95, 0.99}) {
          out += name +
                 PrometheusLabelsPlus(instrument.labels, "quantile",
                                      Json(q).Dump()) +
                 ' ';
          AppendNumber(&out, stats.Quantile(q));
          out += '\n';
        }
        out += name + "_sum" + PrometheusLabels(instrument.labels) + ' ';
        AppendNumber(&out, stats.sum());
        out += '\n';
        out += name + "_count" + PrometheusLabels(instrument.labels) + ' ' +
               std::to_string(stats.count()) + '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace lightrw::obs
