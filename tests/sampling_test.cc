#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"
#include "rng/stat_tests.h"
#include "sampling/alias.h"
#include "sampling/inverse_transform.h"
#include "sampling/parallel_wrs.h"
#include "sampling/pwrs_kernels.h"
#include "sampling/reservoir.h"
#include "sampling/sampler.h"

namespace lightrw::sampling {
namespace {

using graph::Weight;

// Runs `trials` draws with `draw` and chi-square-tests the empirical
// distribution against weights (zero-weight items must never appear).
template <typename DrawFn>
void ExpectMatchesWeights(const std::vector<Weight>& weights, int trials,
                          DrawFn draw) {
  std::vector<uint64_t> counts(weights.size(), 0);
  for (int t = 0; t < trials; ++t) {
    const size_t idx = draw();
    ASSERT_LT(idx, weights.size());
    ASSERT_GT(weights[idx], 0u) << "zero-weight item sampled";
    ++counts[idx];
  }
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  // Chi-square over the positive-weight support.
  std::vector<uint64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0) {
      observed.push_back(counts[i]);
      expected.push_back(trials * weights[i] / total);
    } else {
      EXPECT_EQ(counts[i], 0u);
    }
  }
  ASSERT_GE(observed.size(), 2u);
  const auto result = rng::ChiSquareTest(observed, expected);
  EXPECT_GT(result.p_value, 1e-4)
      << "chi2=" << result.statistic << " df=" << result.degrees_of_freedom;
}

TEST(WrsSelectTest, ZeroWeightNeverSelected) {
  for (uint32_t r : {0u, 1u, 1u << 31, UINT32_MAX}) {
    EXPECT_FALSE(WrsSelect(0, 100, r));
  }
}

TEST(WrsSelectTest, SoleItemAlmostAlwaysSelected) {
  // First positive item: inclusive sum equals its weight, so selection
  // probability is ~1 (up to the 2^-32 integer rounding).
  EXPECT_TRUE(WrsSelect(5, 5, 0));
  EXPECT_TRUE(WrsSelect(5, 5, UINT32_MAX - 2));
}

TEST(WrsSelectTest, HalfWeightMatchesCoinFlip) {
  // w=1, S=2: selection iff 2^32 > r*2 + 1, i.e. r < 2^31.
  EXPECT_TRUE(WrsSelect(1, 2, 0));
  EXPECT_TRUE(WrsSelect(1, 2, (1u << 31) - 1));
  EXPECT_FALSE(WrsSelect(1, 2, 1u << 31));
}

TEST(WrsSelectTest, LargeSumsDoNotOverflow) {
  // Inclusive sums beyond 2^32 exercise the 128-bit path.
  const uint64_t huge = (1ull << 40) + 12345;
  EXPECT_FALSE(WrsSelect(1, huge, UINT32_MAX));
  EXPECT_TRUE(WrsSelect(UINT32_MAX, huge, 0));
}

TEST(ReservoirSamplerTest, EmptyStreamYieldsNoSample) {
  rng::ThunderingRng rng(1, 1);
  ReservoirSampler sampler(&rng, 0);
  EXPECT_EQ(sampler.selected(), kNoSample);
}

TEST(ReservoirSamplerTest, AllZeroWeightsYieldNoSample) {
  rng::ThunderingRng rng(1, 1);
  ReservoirSampler sampler(&rng, 0);
  for (size_t i = 0; i < 10; ++i) {
    sampler.Offer(i, 0);
  }
  EXPECT_EQ(sampler.selected(), kNoSample);
  EXPECT_EQ(sampler.weight_sum(), 0u);
}

TEST(ReservoirSamplerTest, SinglePositiveItemAlwaysWins) {
  rng::ThunderingRng rng(1, 2);
  for (int trial = 0; trial < 100; ++trial) {
    ReservoirSampler sampler(&rng, 0);
    sampler.Offer(0, 0);
    sampler.Offer(1, 7);
    sampler.Offer(2, 0);
    EXPECT_EQ(sampler.selected(), 1u);
  }
}

TEST(ReservoirSamplerTest, MatchesWeightDistribution) {
  const std::vector<Weight> weights = {4, 9, 1, 0, 6};
  rng::ThunderingRng rng(1, 42);
  ReservoirSampler sampler(&rng, 0);
  ExpectMatchesWeights(weights, 40000, [&] {
    sampler.Reset();
    for (size_t i = 0; i < weights.size(); ++i) {
      sampler.Offer(i, weights[i]);
    }
    return sampler.selected();
  });
}

TEST(ReservoirSamplerTest, HeavySkewDistribution) {
  const std::vector<Weight> weights = {1, 1000};
  rng::ThunderingRng rng(1, 7);
  ReservoirSampler sampler(&rng, 0);
  uint64_t rare = 0;
  constexpr int kTrials = 200000;
  for (int t = 0; t < kTrials; ++t) {
    sampler.Reset();
    sampler.Offer(0, weights[0]);
    sampler.Offer(1, weights[1]);
    rare += sampler.selected() == 0 ? 1 : 0;
  }
  const double expected = kTrials / 1001.0;
  EXPECT_NEAR(static_cast<double>(rare), expected, 5 * std::sqrt(expected));
}

// --- Parallel WRS -----------------------------------------------------------

class ParallelWrsDistributionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelWrsDistributionTest, MatchesWeightDistribution) {
  const size_t k = GetParam();
  const std::vector<Weight> weights = {3, 1, 4, 1, 5, 9, 2, 6, 0, 5, 3, 5};
  rng::ThunderingRng rng(k, 99);
  ParallelWrsSampler sampler(k, &rng);
  ExpectMatchesWeights(weights, 40000, [&] {
    return sampler.SampleAll({weights.data(), weights.size()});
  });
}

TEST_P(ParallelWrsDistributionTest, StreamShorterThanBatch) {
  const size_t k = GetParam();
  const std::vector<Weight> weights = {2, 3};
  rng::ThunderingRng rng(k, 5);
  ParallelWrsSampler sampler(k, &rng);
  ExpectMatchesWeights(weights, 30000, [&] {
    return sampler.SampleAll({weights.data(), weights.size()});
  });
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ParallelWrsDistributionTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

TEST(ParallelWrsTest, AllZeroYieldsNoSample) {
  rng::ThunderingRng rng(4, 1);
  ParallelWrsSampler sampler(4, &rng);
  const std::vector<Weight> weights(10, 0);
  EXPECT_EQ(sampler.SampleAll({weights.data(), weights.size()}), kNoSample);
}

TEST(ParallelWrsTest, WeightSumAccumulatesAcrossBatches) {
  rng::ThunderingRng rng(4, 1);
  ParallelWrsSampler sampler(4, &rng);
  const std::vector<Weight> weights = {1, 2, 3, 4, 5, 6};
  sampler.SampleAll({weights.data(), weights.size()});
  EXPECT_EQ(sampler.weight_sum(), 21u);
  EXPECT_EQ(sampler.batches_consumed(), 2u);
}

TEST(ParallelWrsTest, BaseIndexOffsetsSelection) {
  rng::ThunderingRng rng(2, 3);
  ParallelWrsSampler sampler(2, &rng);
  sampler.Reset();
  const std::vector<Weight> batch = {0, 8};
  sampler.OfferBatches({batch.data(), 2}, /*base_index=*/10);
  EXPECT_EQ(sampler.selected(), 11u);
}

TEST(ParallelWrsTest, LaterBatchWithoutCandidateKeepsEarlierSelection) {
  rng::ThunderingRng rng(2, 3);
  ParallelWrsSampler sampler(2, &rng);
  sampler.Reset();
  const std::vector<Weight> first = {5, 5};
  const std::vector<Weight> zeros = {0, 0};
  sampler.OfferBatches({first.data(), 2}, 0);
  const size_t selected = sampler.selected();
  ASSERT_NE(selected, kNoSample);
  sampler.OfferBatches({zeros.data(), 2}, 2);
  EXPECT_EQ(sampler.selected(), selected);
}

// Sequential and parallel WRS must agree in distribution (they are the
// same chain process); compare empirical distributions coarsely.
TEST(ParallelWrsTest, AgreesWithSequentialReservoir) {
  const std::vector<Weight> weights = {7, 2, 2, 9, 1, 4, 4, 1};
  const double total = 30.0;
  constexpr int kTrials = 60000;

  rng::ThunderingRng rng_seq(1, 1001);
  ReservoirSampler seq(&rng_seq, 0);
  rng::ThunderingRng rng_par(4, 2002);
  ParallelWrsSampler par(4, &rng_par);

  std::vector<double> freq_seq(weights.size(), 0.0);
  std::vector<double> freq_par(weights.size(), 0.0);
  for (int t = 0; t < kTrials; ++t) {
    seq.Reset();
    for (size_t i = 0; i < weights.size(); ++i) {
      seq.Offer(i, weights[i]);
    }
    freq_seq[seq.selected()] += 1.0;
    freq_par[par.SampleAll({weights.data(), weights.size()})] += 1.0;
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = kTrials * weights[i] / total;
    EXPECT_NEAR(freq_seq[i], expected, 5 * std::sqrt(expected)) << i;
    EXPECT_NEAR(freq_par[i], expected, 5 * std::sqrt(expected)) << i;
  }
}

// Algorithm 4.1 written out one batch and one lane at a time: lane j of
// a batch draws through ThunderingRng::Next (a zero-weight lane draws
// nothing), tests Eq. (8) with WrsSelect against the inclusive running
// sum, and the highest selected lane of the batch replaces the reservoir.
struct ReferencePwrs {
  size_t k;
  rng::ThunderingRng* rng;
  size_t stream_base;
  uint64_t weight_sum = 0;
  size_t selected = kNoSample;
  uint64_t batches = 0;

  void Run(const std::vector<Weight>& weights) {
    weight_sum = 0;
    selected = kNoSample;
    batches = 0;
    for (size_t first = 0; first < weights.size(); first += k) {
      size_t lane = kNoSample;
      for (size_t j = 0; j < k && first + j < weights.size(); ++j) {
        const Weight w = weights[first + j];
        weight_sum += w;
        if (w != 0 && WrsSelect(w, weight_sum, rng->Next(stream_base + j))) {
          lane = j;
        }
      }
      if (lane != kNoSample) {
        selected = first + lane;
      }
      ++batches;
    }
  }
};

enum class WeightShape {
  kSmallWithZeros,  // isolated zero lanes among small weights
  kZeroBatches,     // whole batches of zeros
  kAllZero,         // nothing sampleable
  kFullRange,       // weights up to 2^32 - 1: S crosses 2^32 at once
  kCrossMidStream,  // S sits just below 2^32, then crosses mid-batch
};

std::vector<Weight> MakeWeights(WeightShape shape, size_t n, size_t k,
                                rng::Xoshiro256StarStar* gen) {
  std::vector<Weight> weights(n);
  for (size_t i = 0; i < n; ++i) {
    Weight w = 0;
    switch (shape) {
      case WeightShape::kSmallWithZeros:
        w = gen->NextBounded(8) == 0 ? 0 : 1 + gen->NextBounded(15);
        break;
      case WeightShape::kZeroBatches:
        w = 1 + gen->NextBounded(100);
        break;
      case WeightShape::kAllZero:
        break;
      case WeightShape::kFullRange:
        w = gen->NextBounded(4) == 0 ? 0 : gen->Next32();
        break;
      case WeightShape::kCrossMidStream:
        w = i == 0 ? UINT32_MAX - 1000 : 1 + gen->NextBounded(200);
        break;
    }
    weights[i] = w;
  }
  if (shape == WeightShape::kZeroBatches) {
    for (size_t first = 0; first < n; first += k) {
      if (gen->NextBounded(3) == 0) {
        std::fill(weights.begin() + first,
                  weights.begin() + std::min(n, first + k), 0);
      }
    }
  }
  return weights;
}

// A lane kernel against the reference, on every shape, stream length
// and lane count, offered whole and in random runs of whole batches, as
// ParallelWrsSampler::OfferBatches offers them. Selection, weight sum,
// batch count and every stream's position must match exactly. k = 5,
// 12, 24 and 40 end their batches inside a register of 8 lanes. The
// generator holds exactly stream_base + k streams, so a lane read or
// written past k leaves its arrays.
void ExpectKernelEqualsAlgorithm41(pwrs::Kernel kernel) {
  rng::Xoshiro256StarStar gen(0x41);
  uint64_t cases = 0;
  for (const size_t k : {1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 40, 64}) {
    std::vector<size_t> lengths;
    for (size_t n = 1; n <= 3 * k + 1; ++n) {
      lengths.push_back(n);
    }
    for (const size_t n : {1000, 2053, 4099}) {
      lengths.push_back(n);
    }
    for (const size_t stream_base : {size_t{0}, size_t{3}}) {
      const size_t num_streams = stream_base + k;
      for (const WeightShape shape :
           {WeightShape::kSmallWithZeros, WeightShape::kZeroBatches,
            WeightShape::kAllZero, WeightShape::kFullRange,
            WeightShape::kCrossMidStream}) {
        for (const size_t n : lengths) {
          for (const bool split : {false, true}) {
            const std::vector<Weight> weights =
                MakeWeights(shape, n, k, &gen);
            const uint64_t seed = gen.Next();
            rng::ThunderingRng ref_rng(num_streams, seed);
            rng::ThunderingRng rng(num_streams, seed);
            ReferencePwrs ref{k, &ref_rng, stream_base};
            // Two streams back to back: the second starts where the
            // first left every lane.
            for (int round = 0; round < 2; ++round) {
              ref.Run(weights);
              pwrs::Run run;
              for (size_t first = 0; first < n;) {
                const size_t len =
                    split ? std::min(n - first, (1 + gen.NextBounded(4)) * k)
                          : n;
                kernel({weights.data() + first, len}, first, k,
                       rng.streams(stream_base, k), &run);
                first += len;
              }
              const auto where = ::testing::Message()
                                 << "k=" << k << " base=" << stream_base
                                 << " shape=" << static_cast<int>(shape)
                                 << " n=" << n << " split=" << split
                                 << " round=" << round;
              ASSERT_EQ(run.selected, ref.selected) << where;
              ASSERT_EQ(run.weight_sum, ref.weight_sum) << where;
              ASSERT_EQ(run.batches, ref.batches) << where;
              if (shape == WeightShape::kAllZero) {
                ASSERT_EQ(run.selected, kNoSample) << where;
              }
            }
            for (size_t s = 0; s < num_streams; ++s) {
              for (int draw = 0; draw < 3; ++draw) {
                ASSERT_EQ(rng.Next(s), ref_rng.Next(s))
                    << "stream " << s << " draw " << draw;
              }
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 5000u);
}

// The scalar kernel, the only one on CPUs without AVX-512.
TEST(ParallelWrsTest, KernelEqualsAlgorithm41) {
  ExpectKernelEqualsAlgorithm41(pwrs::OfferBatchesScalar);
}

TEST(ParallelWrsTest, Avx512KernelEqualsAlgorithm41) {
  if (const char* missing = pwrs::MissingAvx512Feature()) {
    GTEST_SKIP() << "the CPU lacks " << missing;
  }
  ExpectKernelEqualsAlgorithm41(pwrs::OfferBatchesAvx512);
}

// --- Inverse transform ------------------------------------------------------

TEST(InverseTransformTest, EmptyAndZeroTotal) {
  InverseTransformTable table;
  table.Build({});
  EXPECT_EQ(table.Sample(123), kNoSample);
  const std::vector<Weight> zeros = {0, 0, 0};
  table.Build({zeros.data(), zeros.size()});
  EXPECT_EQ(table.total_weight(), 0u);
  EXPECT_EQ(table.Sample(9), kNoSample);
}

TEST(InverseTransformTest, DeterministicBoundaries) {
  const std::vector<Weight> weights = {2, 3, 5};  // prefixes 2, 5, 10
  InverseTransformTable table;
  table.Build({weights.data(), weights.size()});
  EXPECT_EQ(table.total_weight(), 10u);
  EXPECT_EQ(table.Sample(0), 0u);
  EXPECT_EQ(table.Sample(1), 0u);
  EXPECT_EQ(table.Sample(2), 1u);
  EXPECT_EQ(table.Sample(4), 1u);
  EXPECT_EQ(table.Sample(5), 2u);
  EXPECT_EQ(table.Sample(9), 2u);
  EXPECT_EQ(table.Sample(10), 0u);  // wraps modulo total
}

TEST(InverseTransformTest, SkipsZeroWeightItems) {
  const std::vector<Weight> weights = {0, 4, 0, 6, 0};
  InverseTransformTable table;
  table.Build({weights.data(), weights.size()});
  for (uint64_t r = 0; r < 10; ++r) {
    const size_t idx = table.Sample(r);
    EXPECT_TRUE(idx == 1 || idx == 3) << "r=" << r;
  }
}

TEST(InverseTransformTest, MatchesWeightDistribution) {
  const std::vector<Weight> weights = {1, 2, 3, 4};
  InverseTransformTable table;
  table.Build({weights.data(), weights.size()});
  rng::Xoshiro256StarStar gen(5);
  ExpectMatchesWeights(weights, 40000,
                       [&] { return table.Sample(gen.Next()); });
}

TEST(InverseTransformTest, TableBytesTracksSize) {
  InverseTransformTable table;
  const std::vector<Weight> weights(17, 1);
  table.Build({weights.data(), weights.size()});
  EXPECT_EQ(table.table_bytes(), 17u * 8);
}

// --- Alias ------------------------------------------------------------------

TEST(AliasTest, ZeroTotalYieldsNoSample) {
  AliasTable table;
  const std::vector<Weight> zeros = {0, 0};
  table.Build({zeros.data(), zeros.size()});
  EXPECT_EQ(table.Sample(0, 0), kNoSample);
}

TEST(AliasTest, UniformWeights) {
  const std::vector<Weight> weights = {5, 5, 5, 5};
  AliasTable table;
  table.Build({weights.data(), weights.size()});
  rng::Xoshiro256StarStar gen(3);
  ExpectMatchesWeights(weights, 40000, [&] {
    return table.Sample(gen.Next(), gen.Next32());
  });
}

TEST(AliasTest, SkewedWeights) {
  const std::vector<Weight> weights = {1, 2, 3, 4, 90};
  AliasTable table;
  table.Build({weights.data(), weights.size()});
  rng::Xoshiro256StarStar gen(13);
  ExpectMatchesWeights(weights, 60000, [&] {
    return table.Sample(gen.Next(), gen.Next32());
  });
}

TEST(AliasTest, ZeroWeightItemsNeverSampled) {
  const std::vector<Weight> weights = {0, 10, 0, 10};
  AliasTable table;
  table.Build({weights.data(), weights.size()});
  rng::Xoshiro256StarStar gen(17);
  for (int t = 0; t < 10000; ++t) {
    const size_t idx = table.Sample(gen.Next(), gen.Next32());
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(AliasTest, RebuildReusesTable) {
  AliasTable table;
  const std::vector<Weight> a = {1, 1};
  const std::vector<Weight> b = {0, 1, 1};
  table.Build({a.data(), a.size()});
  EXPECT_EQ(table.size(), 2u);
  table.Build({b.data(), b.size()});
  EXPECT_EQ(table.size(), 3u);
  rng::Xoshiro256StarStar gen(1);
  for (int t = 0; t < 1000; ++t) {
    EXPECT_NE(table.Sample(gen.Next(), gen.Next32()), 0u);
  }
}

// Cross-sampler agreement: all four samplers draw from the same weight
// vector and must produce statistically equal distributions.
TEST(CrossSamplerTest, AllSamplersAgree) {
  const std::vector<Weight> weights = {10, 0, 5, 25, 60};
  const double total = 100.0;
  constexpr int kTrials = 50000;

  rng::Xoshiro256StarStar gen(111);
  rng::ThunderingRng trng(8, 222);
  InverseTransformTable its;
  its.Build({weights.data(), weights.size()});
  AliasTable alias;
  alias.Build({weights.data(), weights.size()});
  ReservoirSampler wrs(&trng, 0);
  ParallelWrsSampler pwrs(8, &trng, 0);

  std::vector<std::vector<uint64_t>> counts(4,
                                            std::vector<uint64_t>(5, 0));
  for (int t = 0; t < kTrials; ++t) {
    ++counts[0][its.Sample(gen.Next())];
    ++counts[1][alias.Sample(gen.Next(), gen.Next32())];
    wrs.Reset();
    for (size_t i = 0; i < weights.size(); ++i) {
      wrs.Offer(i, weights[i]);
    }
    ++counts[2][wrs.selected()];
    ++counts[3][pwrs.SampleAll({weights.data(), weights.size()})];
  }
  for (int s = 0; s < 4; ++s) {
    for (size_t i = 0; i < weights.size(); ++i) {
      const double expected = kTrials * weights[i] / total;
      if (weights[i] == 0) {
        EXPECT_EQ(counts[s][i], 0u) << "sampler " << s;
      } else {
        EXPECT_NEAR(static_cast<double>(counts[s][i]), expected,
                    5 * std::sqrt(expected))
            << "sampler " << s << " item " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lightrw::sampling
