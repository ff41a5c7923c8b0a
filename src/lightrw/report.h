// Human-readable run reports: formats AccelRunStats together with the
// platform models into the summary an operator would want after a run
// (throughput, memory behaviour, modeled power/PCIe/resources). Used by
// the walk_tool --report flag.

#ifndef LIGHTRW_LIGHTRW_REPORT_H_
#define LIGHTRW_LIGHTRW_REPORT_H_

#include <string>

#include "graph/csr.h"
#include "lightrw/config.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/platform_models.h"

namespace lightrw::core {

// Service-level objective summary of a walk-service run, kept as plain
// data so the report stays independent of the service layer (the service
// fills it from ServiceRunStats::Slo()).
struct SloSummary {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t deadline_violations = 0;
  uint64_t degraded = 0;
  uint64_t breaker_trips = 0;
  uint64_t retries = 0;
  double goodput_per_s = 0.0;   // deadline-met completions per second
  double shed_rate = 0.0;       // shed / offered
  double violation_rate = 0.0;  // late completions / offered
  double queue_delay_p50 = 0.0;  // cycles
  double queue_delay_p99 = 0.0;
  double latency_p50 = 0.0;  // cycles
  double latency_p99 = 0.0;
  bool Any() const { return offered > 0; }
};

// Renders the SLO section on its own (used by walk_tool's service mode).
std::string FormatSloSection(const SloSummary& slo);

// Everything needed to render a report for one simulated run.
struct RunReportInputs {
  const graph::CsrGraph* graph = nullptr;
  const AcceleratorConfig* config = nullptr;
  const AccelRunStats* stats = nullptr;
  // Application properties.
  std::string app_name;
  bool needs_prev_neighbors = false;
  // Workload shape (for the PCIe model).
  uint64_t num_queries = 0;
  uint32_t query_length = 0;
  // Telemetry timeline: pre-rendered by
  // obs::TimeSeriesRecorder::FormatTimelineSection and appended when
  // non-null and non-empty (runs without scraping keep a byte-identical
  // report).
  const std::string* telemetry_timeline = nullptr;
};

// Renders a multi-line report. All inputs must be non-null.
std::string FormatRunReport(const RunReportInputs& inputs);

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_REPORT_H_
