// Wall-clock perf harness (src/perf/): repeat/median/MAD aggregation,
// warmup exclusion and counter-stability flagging — all driven through
// the injected FakeClock so every assertion is exact.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/sim_thread_pool.h"
#include "obs/json.h"
#include "perf/perf_harness.h"

namespace lightrw::perf {
namespace {

TEST(SummarizeTest, OddSampleCount) {
  const Aggregate agg = Summarize({4.0, 1.0, 9.0});
  EXPECT_DOUBLE_EQ(agg.median, 4.0);
  // Absolute deviations from 4: {0, 3, 5} -> median 3.
  EXPECT_DOUBLE_EQ(agg.mad, 3.0);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 9.0);
}

TEST(SummarizeTest, EvenSampleCountUsesMiddleMean) {
  const Aggregate agg = Summarize({8.0, 2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(agg.median, 5.0);
  // Deviations from 5: {3, 3, 1, 1} -> median (1 + 3) / 2 = 2.
  EXPECT_DOUBLE_EQ(agg.mad, 2.0);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
}

TEST(SummarizeTest, SingleAndEmpty) {
  const Aggregate one = Summarize({7.5});
  EXPECT_DOUBLE_EQ(one.median, 7.5);
  EXPECT_DOUBLE_EQ(one.mad, 0.0);

  const Aggregate none = Summarize({});
  EXPECT_DOUBLE_EQ(none.median, 0.0);
  EXPECT_DOUBLE_EQ(none.mad, 0.0);
  EXPECT_DOUBLE_EQ(none.min, 0.0);
  EXPECT_DOUBLE_EQ(none.max, 0.0);
}

TEST(SummarizeTest, MedianResistsOutlier) {
  // One 100x outlier (a neighbouring job stole the core) barely moves
  // the median — the property the harness is built on.
  const Aggregate agg = Summarize({1.0, 1.1, 0.9, 1.0, 100.0});
  EXPECT_DOUBLE_EQ(agg.median, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 100.0);
}

constexpr uint64_t kNanosPerSec = 1'000'000'000ULL;

TEST(MeasureWorkloadTest, WarmupExcludedAndRatesExact) {
  RepeatConfig config;
  config.warmup = 2;
  config.repeats = 3;
  // The clock is read only around timed repeats: 2 reads per repeat,
  // none for warmup. Repeats take 1s, 2s, 4s.
  FakeClock clock({0, 1 * kNanosPerSec,              //
                   10 * kNanosPerSec, 12 * kNanosPerSec,
                   20 * kNanosPerSec, 24 * kNanosPerSec});
  uint32_t calls = 0;
  const WorkloadResult result =
      MeasureWorkload("unit", config, &clock, [&calls]() {
        ++calls;
        WorkCounters c;
        c.simulated_cycles = 1000;
        c.walks = 10;
        c.steps = 80;
        return c;
      });
  // Warmup runs execute the body but never touch the clock: a dry-run
  // FakeClock script would abort if they did.
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(result.warmup, 2u);
  ASSERT_EQ(result.wall_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(result.wall_seconds[0], 1.0);
  EXPECT_DOUBLE_EQ(result.wall_seconds[1], 2.0);
  EXPECT_DOUBLE_EQ(result.wall_seconds[2], 4.0);
  EXPECT_TRUE(result.counters_stable);
  EXPECT_DOUBLE_EQ(result.wall.median, 2.0);
  EXPECT_DOUBLE_EQ(result.wall.min, 1.0);
  EXPECT_DOUBLE_EQ(result.wall.max, 4.0);
  // Rates are computed per repeat and then summarized: walks/s samples
  // are {10, 5, 2.5} -> median 5.
  EXPECT_DOUBLE_EQ(result.walks_per_sec.median, 5.0);
  EXPECT_DOUBLE_EQ(result.walks_per_sec.min, 2.5);
  EXPECT_DOUBLE_EQ(result.walks_per_sec.max, 10.0);
  EXPECT_DOUBLE_EQ(result.sim_cycles_per_sec.median, 500.0);
  EXPECT_DOUBLE_EQ(result.steps_per_sec.median, 40.0);
  EXPECT_DOUBLE_EQ(result.spans_per_sec.median, 0.0);
}

TEST(MeasureWorkloadTest, UnstableCountersFlagged) {
  RepeatConfig config;
  config.warmup = 0;
  config.repeats = 2;
  FakeClock clock({0, 1 * kNanosPerSec, 2 * kNanosPerSec,
                   3 * kNanosPerSec});
  uint64_t next_walks = 10;
  const WorkloadResult result =
      MeasureWorkload("unstable", config, &clock, [&next_walks]() {
        WorkCounters c;
        c.walks = next_walks++;  // a deterministic workload must not do this
        return c;
      });
  EXPECT_FALSE(result.counters_stable);
}

TEST(HostContextTest, ReportsThePoolsThreadCountAndTheBuild) {
  const obs::Json host = HostContext();
  for (const char* key : {"sim_threads", "hardware_concurrency", "compiler",
                          "build", "pointer_bits"}) {
    ASSERT_NE(host.Find(key), nullptr) << key;
  }
  EXPECT_EQ(host.Find("sim_threads")->uint_value(),
            SimThreadPool::DefaultThreads());
}

TEST(FakeClockTest, ReplaysScriptInOrder) {
  FakeClock clock({5, 17, 1000});
  EXPECT_EQ(clock.NowNanos(), 5u);
  EXPECT_EQ(clock.NowNanos(), 17u);
  EXPECT_EQ(clock.NowNanos(), 1000u);
}

}  // namespace
}  // namespace lightrw::perf
