// Numeric-limit and overflow behaviour: large weights, long streams, and
// accumulator widths in the samplers and engines.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "sampling/inverse_transform.h"
#include "sampling/parallel_wrs.h"
#include "sampling/pwrs_kernels.h"
#include "sampling/reservoir.h"
#include "sampling/sampler.h"

namespace lightrw::sampling {
namespace {

TEST(OverflowTest, WrsSelectAtMaxWeight) {
  // w = 2^32-1 as the sole item: always selected.
  EXPECT_TRUE(WrsSelect(UINT32_MAX, UINT32_MAX, 0));
  EXPECT_TRUE(WrsSelect(UINT32_MAX, UINT32_MAX, UINT32_MAX - 2));
}

TEST(OverflowTest, WrsSelectHugeAccumulatedSum) {
  // Accumulated sums near 2^63 must not wrap the 128-bit product.
  const uint64_t huge = (1ull << 62) + 99;
  EXPECT_FALSE(WrsSelect(1, huge, 2));
  // A max-weight item against a huge sum still has ~w/S probability; with
  // r = 0 it is always selected.
  EXPECT_TRUE(WrsSelect(UINT32_MAX, huge, 0));
}

TEST(OverflowTest, ReservoirAccumulatesMaxWeights) {
  rng::ThunderingRng rng(1, 1);
  ReservoirSampler sampler(&rng, 0);
  for (size_t i = 0; i < 1000; ++i) {
    sampler.Offer(i, UINT32_MAX);
  }
  EXPECT_EQ(sampler.weight_sum(), 1000ull * UINT32_MAX);
  EXPECT_LT(sampler.selected(), 1000u);
}

// 100 weights of 2^32 - 1 through 8 lanes: the running sum passes 2^32
// at the first batch's second lane.
pwrs::Run OfferMaxWeights(pwrs::Kernel kernel) {
  rng::ThunderingRng rng(8, 1);
  const std::vector<graph::Weight> weights(100, UINT32_MAX);
  pwrs::Run run;
  kernel(weights, 0, 8, rng.streams(0, 8), &run);
  return run;
}

TEST(OverflowTest, ParallelWrsAccumulatesMaxWeights) {
  const pwrs::Run run = OfferMaxWeights(pwrs::OfferBatchesScalar);
  EXPECT_LT(run.selected, 100u);
  EXPECT_EQ(run.weight_sum, 100ull * UINT32_MAX);
  EXPECT_EQ(run.batches, 13u);
}

TEST(OverflowTest, ParallelWrsAvx512AccumulatesMaxWeights) {
  if (const char* missing = pwrs::MissingAvx512Feature()) {
    GTEST_SKIP() << "the CPU lacks " << missing;
  }
  const pwrs::Run run = OfferMaxWeights(pwrs::OfferBatchesAvx512);
  EXPECT_EQ(run.selected, OfferMaxWeights(pwrs::OfferBatchesScalar).selected);
  EXPECT_EQ(run.weight_sum, 100ull * UINT32_MAX);
  EXPECT_EQ(run.batches, 13u);
}

TEST(OverflowTest, InverseTransformMaxWeights) {
  const std::vector<graph::Weight> weights(64, UINT32_MAX);
  InverseTransformTable table;
  table.Build({weights.data(), weights.size()});
  EXPECT_EQ(table.total_weight(), 64ull * UINT32_MAX);
  rng::Xoshiro256StarStar gen(3);
  for (int t = 0; t < 1000; ++t) {
    EXPECT_LT(table.Sample(gen.Next()), 64u);
  }
}

TEST(OverflowTest, SkewedMaxVsMinWeights) {
  // One max-weight item among minimal ones: the heavy item dominates.
  std::vector<graph::Weight> weights(10, 1);
  weights[7] = UINT32_MAX;
  rng::ThunderingRng rng(4, 9);
  ParallelWrsSampler sampler(4, &rng);
  int heavy = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    heavy += sampler.SampleAll({weights.data(), weights.size()}) == 7;
  }
  EXPECT_GT(heavy, kTrials - 10);  // expected miss rate ~ 9/2^32
}

TEST(OverflowTest, LongStreamSelectionStaysInRange) {
  rng::ThunderingRng rng(16, 4);
  ParallelWrsSampler sampler(16, &rng);
  const std::vector<graph::Weight> weights(100000, 3);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const size_t picked =
        sampler.SampleAll({weights.data(), weights.size()});
    EXPECT_LT(picked, weights.size());
  }
}

TEST(OverflowTest, LateItemsStillSelectable) {
  // In chain WRS the last item of an n-item uniform stream has selection
  // probability 1/n: with 20000 trials over n=100, expect ~200 wins.
  rng::ThunderingRng rng(1, 77);
  ReservoirSampler sampler(&rng, 0);
  constexpr size_t kN = 100;
  constexpr int kTrials = 20000;
  int last_wins = 0;
  for (int t = 0; t < kTrials; ++t) {
    sampler.Reset();
    for (size_t i = 0; i < kN; ++i) {
      sampler.Offer(i, 1);
    }
    last_wins += sampler.selected() == kN - 1;
  }
  EXPECT_NEAR(last_wins, kTrials / kN, 5 * std::sqrt(kTrials / kN));
}

}  // namespace
}  // namespace lightrw::sampling
