// Post-run span analysis: per-query critical-path attribution and
// multi-window SLO burn-rate alerting.
//
// The analyzer folds a query's span tree into a fixed set of latency
// components — where did the cycles between arrival and the terminal
// event go — and names the dominant one. For a breached query (deadline
// missed, shed, or failed) that dominant component is the answer an
// operator needs: "this query was late because it sat in the admission
// queue", not "the run's aggregate p99 moved".
//
// Components (fixed order; ties in the argmax break toward the earlier
// entry, i.e. toward the earlier lifecycle stage):
//   queue_wait   admission enqueue -> dispatch, summed over attempts
//   backoff      retry backoff waits after bounces/failures
//   dram_info    row-index lookups (cache miss -> DRAM) inside walks
//   dram_fetch   adjacency streaming through the burst engine
//   sampler      WRS consume tail after the last data beat
//   pipeline     fixed module-pipeline traversal latency
//   network      walker migrations between boards (incl. retransmits)
//   recovery     fault detection / failover delay charged to the walk
//   other        unattributed remainder of the root interval (e.g.
//                scheduling gaps between a retire and the next event)
//
// The burn-rate monitor implements the standard multi-window SLO alert:
// over a fast and a slow sliding window of simulated time, compute the
// breach rate divided by the error budget; fire while BOTH windows burn
// above the threshold (fast window for responsiveness, slow window so a
// momentary blip cannot page). Alert fire/clear instants are evaluated
// at terminal events, in simulated time, and are therefore exactly as
// deterministic as the run itself.

#ifndef LIGHTRW_OBS_CRITICAL_PATH_H_
#define LIGHTRW_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/json.h"
#include "obs/span.h"

namespace lightrw::obs {

enum Component : size_t {
  kCompQueue = 0,
  kCompBackoff,
  kCompDramInfo,
  kCompDramFetch,
  kCompSampler,
  kCompPipeline,
  kCompNetwork,
  kCompRecovery,
  kCompOther,
  kNumComponents,
};

// Stable short name of a component ("queue_wait", "dram_fetch", ...).
const char* ComponentName(size_t component);

// One analyzed query (trace).
struct QueryAttribution {
  uint64_t trace = 0;
  uint64_t total_cycles = 0;  // root interval: arrival -> terminal event
  bool breached = false;
  std::string outcome;
  std::array<uint64_t, kNumComponents> cycles{};
  size_t dominant = kCompOther;  // argmax over `cycles`

  const char* DominantName() const { return ComponentName(dominant); }
};

// Full-run attribution: every breached query individually (the breach
// report), plus per-component distributions over all analyzed queries.
struct AttributionReport {
  uint64_t queries_analyzed = 0;
  uint64_t breached_count = 0;
  // Every breached query, sorted by trace id; each names its dominant
  // component.
  std::vector<QueryAttribution> breached;
  // Component cycle distributions over all analyzed queries (for
  // per-component p99 reporting).
  std::array<SampleStats, kNumComponents> component_cycles;
  // How often each component dominated a breached query.
  std::array<uint64_t, kNumComponents> dominant_counts{};

  Json ToJson() const;
};

// Folds the recorder's retained spans into per-query attributions. Only
// traces whose spans were retained are analyzed (in kBreached mode that
// is exactly the breach set); traces with a summary but no spans count
// toward queries_analyzed via the summaries passed to the burn monitor,
// not here.
AttributionReport AnalyzeCriticalPaths(const SpanRecorder& spans);

// ---------------------------------------------------------------------------
// Multi-window SLO burn-rate alerting.

struct BurnRateConfig {
  // Error budget: the SLO's allowed breach fraction (e.g. 0.01 = 99%).
  double budget = 0.01;
  // Fire while breach_rate / budget exceeds this in BOTH windows.
  double threshold = 2.0;
  // Sliding windows in simulated cycles.
  uint64_t fast_window_cycles = 1u << 14;
  uint64_t slow_window_cycles = 1u << 17;
};

// Non-OK for out-of-range fields (each named in the message).
Status ValidateBurnRateConfig(const BurnRateConfig& config);

// One alert transition (fire or clear), evaluated at a terminal event.
struct BurnAlert {
  uint64_t cycle = 0;
  bool firing = false;  // true = alert fired here, false = cleared
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

// Evaluates the monitor over the closed-trace summaries (any order;
// sorted internally by terminal cycle, trace id as the tie-break) and
// returns every fire/clear transition in simulated-time order.
std::vector<BurnAlert> ComputeBurnAlerts(
    const std::vector<TraceSummary>& summaries,
    const BurnRateConfig& config);

Json BurnAlertsToJson(const std::vector<BurnAlert>& alerts);

// Renders the operator-facing "latency attribution" report section:
// breach counts, dominant-component tally, per-component p99, and the
// burn-rate alert log, which walk_tool prints after a run exporting
// spans. Empty string when nothing was analyzed and no alert fired.
std::string FormatLatencyAttributionSection(
    const AttributionReport& report, const std::vector<BurnAlert>& alerts);

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_CRITICAL_PATH_H_
