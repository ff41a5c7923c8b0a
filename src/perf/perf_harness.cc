#include "perf/perf_harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "common/sim_thread_pool.h"

namespace lightrw::perf {
namespace {

double RatePerSecond(uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

}  // namespace

uint64_t MonotonicClock::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

FakeClock::FakeClock(std::vector<uint64_t> instants)
    : instants_(std::move(instants)) {}

uint64_t FakeClock::NowNanos() {
  LIGHTRW_CHECK(next_ < instants_.size());
  return instants_[next_++];
}

Aggregate Summarize(const std::vector<double>& samples) {
  Aggregate out;
  if (samples.empty()) {
    return out;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto median_of_sorted = [](const std::vector<double>& v) {
    const size_t n = v.size();
    return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  out.median = median_of_sorted(sorted);
  out.min = sorted.front();
  out.max = sorted.back();
  std::vector<double> deviations;
  deviations.reserve(sorted.size());
  for (const double s : sorted) {
    deviations.push_back(std::abs(s - out.median));
  }
  std::sort(deviations.begin(), deviations.end());
  out.mad = median_of_sorted(deviations);
  return out;
}

WorkloadResult MeasureWorkload(const std::string& name,
                               const RepeatConfig& config, PerfClock* clock,
                               const std::function<WorkCounters()>& body) {
  WorkloadResult result;
  result.name = name;
  result.warmup = config.warmup;
  for (uint32_t i = 0; i < config.warmup; ++i) {
    (void)body();
  }
  std::vector<double> cycles_rate, walks_rate, steps_rate, spans_rate;
  for (uint32_t i = 0; i < config.repeats; ++i) {
    const uint64_t begin = clock->NowNanos();
    const WorkCounters counters = body();
    const uint64_t end = clock->NowNanos();
    const double seconds = static_cast<double>(end - begin) * 1e-9;
    if (i == 0) {
      result.counters = counters;
    } else if (counters != result.counters) {
      result.counters_stable = false;
      result.counters = counters;
    }
    result.wall_seconds.push_back(seconds);
    cycles_rate.push_back(RatePerSecond(counters.simulated_cycles, seconds));
    walks_rate.push_back(RatePerSecond(counters.walks, seconds));
    steps_rate.push_back(RatePerSecond(counters.steps, seconds));
    spans_rate.push_back(RatePerSecond(counters.spans, seconds));
  }
  result.wall = Summarize(result.wall_seconds);
  result.sim_cycles_per_sec = Summarize(cycles_rate);
  result.walks_per_sec = Summarize(walks_rate);
  result.steps_per_sec = Summarize(steps_rate);
  result.spans_per_sec = Summarize(spans_rate);
  return result;
}

obs::Json HostContext() {
  obs::Json host = obs::Json::MakeObject();
  host.Set("sim_threads",
           static_cast<uint64_t>(SimThreadPool::DefaultThreads()));
  host.Set("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  host.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Set("compiler", "unknown");
#endif
#if defined(NDEBUG)
  host.Set("build", "release");
#else
  host.Set("build", "debug");
#endif
  host.Set("pointer_bits", static_cast<uint64_t>(sizeof(void*) * 8));
  return host;
}

}  // namespace lightrw::perf
