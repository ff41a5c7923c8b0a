// Wall-clock measurement for perfbench, the simulator's host-speed
// benchmark (perfbench/README.md).
//
// The rest of the repository measures *simulated* time (kernel cycles,
// makespans) and gates it with goldens. perfbench measures how fast the
// simulation itself runs on the host, and scripts/perf_ab_gate.py gates
// that by running perfbench in a parent tree and a change tree. This
// harness does perfbench's timing: a workload is a closure that performs
// one complete deterministic run and reports its simulated-work counters;
// the harness times `warmup` untimed runs followed by `repeats` timed runs
// on a monotonic clock and aggregates the per-repeat throughput rates with
// median/MAD (median absolute deviation) — robust statistics, because host
// timings are contaminated by one-sided noise (page faults, frequency
// ramps, neighbouring jobs) that poisons means and variances but not
// medians.
//
// The clock is injected (PerfClock) so the aggregation is unit-testable
// with a fake clock; production code uses MonotonicClock, which reads
// std::chrono::steady_clock and is immune to wall-clock adjustments.
// Simulated counters must not move across repeats of a deterministic
// workload; the harness checks that and flags instability
// (`counters_stable`) rather than silently averaging.

#ifndef LIGHTRW_PERF_PERF_HARNESS_H_
#define LIGHTRW_PERF_PERF_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace lightrw::perf {

// Injectable monotonic time source. NowNanos() must be non-decreasing;
// only differences are ever used.
class PerfClock {
 public:
  virtual ~PerfClock() = default;
  virtual uint64_t NowNanos() = 0;
};

// std::chrono::steady_clock — the production clock.
class MonotonicClock : public PerfClock {
 public:
  uint64_t NowNanos() override;
};

// Test clock: returns the scripted instants in sequence (one per
// NowNanos() call) and aborts if the script runs dry.
class FakeClock : public PerfClock {
 public:
  explicit FakeClock(std::vector<uint64_t> instants);
  uint64_t NowNanos() override;

 private:
  std::vector<uint64_t> instants_;
  size_t next_ = 0;
};

struct RepeatConfig {
  uint32_t warmup = 1;
  uint32_t repeats = 5;
};

// Simulated work one repeat performed, reported by the workload closure.
// A deterministic workload returns identical counters on every repeat.
struct WorkCounters {
  uint64_t simulated_cycles = 0;
  uint64_t walks = 0;
  uint64_t steps = 0;
  uint64_t spans = 0;

  bool operator==(const WorkCounters&) const = default;
};

// Robust summary of one metric's per-repeat samples.
struct Aggregate {
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
  double min = 0.0;
  double max = 0.0;
};

// Median/MAD/min/max of `samples`; all zeros for an empty vector. Even
// sample counts use the mean of the two middle order statistics.
Aggregate Summarize(const std::vector<double>& samples);

// One measured workload: wall seconds per repeat plus throughput rates
// derived per repeat (counter / wall seconds) and then summarized.
struct WorkloadResult {
  std::string name;
  uint32_t warmup = 0;
  std::vector<double> wall_seconds;  // one entry per timed repeat
  WorkCounters counters;             // from the last repeat
  bool counters_stable = true;       // all repeats agreed
  Aggregate wall;
  Aggregate sim_cycles_per_sec;
  Aggregate walks_per_sec;
  Aggregate steps_per_sec;
  Aggregate spans_per_sec;
};

// Times one workload: `config.warmup` untimed calls, then
// `config.repeats` timed calls of `body`. The clock is read immediately
// before and after each timed call; nothing else runs inside the
// measured window.
WorkloadResult MeasureWorkload(const std::string& name,
                               const RepeatConfig& config, PerfClock* clock,
                               const std::function<WorkCounters()>& body);

// {"sim_threads": ..., "hardware_concurrency": ..., "compiler": ...,
//  "build": "release"|"debug", "pointer_bits": ...}. sim_threads is
// SimThreadPool::DefaultThreads(), the count engines with num_threads = 0
// run on.
obs::Json HostContext();

}  // namespace lightrw::perf

#endif  // LIGHTRW_PERF_PERF_HARNESS_H_
