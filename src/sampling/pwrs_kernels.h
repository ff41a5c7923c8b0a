// The two lane kernels behind ParallelWrsSampler::OfferBatches, and the
// CPU check that picks between them. Internal to the sampler: only
// parallel_wrs.cc and the sampler's tests include this header, the tests
// to run each kernel the host can run against the same reference.

#ifndef LIGHTRW_SAMPLING_PWRS_KERNELS_H_
#define LIGHTRW_SAMPLING_PWRS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::sampling::pwrs {

// What the sampler carries from one call to the next.
struct Run {
  uint64_t weight_sum = 0;  // inclusive running sum S
  size_t selected = kNoSample;
  uint64_t batches = 0;
};

// Offers `weights`, a run of whole k-lane batches whose first weight has
// stream index `base_index`, to the k lanes `lanes` (lane j's stream is
// entry j of its three arrays), and updates `run`. The contract of
// OfferBatches: lane j of every batch draws from lane j's stream, a
// zero-weight lane draws nothing, and the highest hit lane of the latest
// batch with a hit wins. A kernel touches only the lanes of the run's
// widest batch.
using Kernel = void (*)(std::span<const Weight> weights, size_t base_index,
                        size_t k, rng::ThunderingRng::Streams lanes,
                        Run* run);

// One lane at a time, through ThunderingRng::Draw; runs on every CPU.
void OfferBatchesScalar(std::span<const Weight> weights, size_t base_index,
                        size_t k, rng::ThunderingRng::Streams lanes,
                        Run* run);

// Eight lanes per AVX-512 register. Only for CPUs where
// MissingAvx512Feature() returns nullptr.
void OfferBatchesAvx512(std::span<const Weight> weights, size_t base_index,
                        size_t k, rng::ThunderingRng::Streams lanes,
                        Run* run);

// nullptr when the CPU has AVX-512 F, DQ, VL and BW, which the vector
// kernel uses. Otherwise the first of them it lacks ("avx512f",
// "avx512dq", "avx512vl", "avx512bw"), or "x86-64" on other targets.
const char* MissingAvx512Feature();

}  // namespace lightrw::sampling::pwrs

#endif  // LIGHTRW_SAMPLING_PWRS_KERNELS_H_
