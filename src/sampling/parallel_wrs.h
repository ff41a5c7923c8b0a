// Parallel weighted reservoir sampling — the paper's Algorithm 4.1.
//
// Consumes the weight stream in batches of k. For each batch it computes
// the inclusive prefix sum W_ps (Eq. 5 decomposition), tests every lane j
// independently with the Eq. (8) integer comparison against lane j's own
// random stream, takes the maximum selected lane index (the tree comparator
// of Fig. 4, step d), and accumulates the batch total into w_sum.
//
// The result is distributed identically to the sequential sampler: item i
// is finally selected with probability w_i / sum(w).
//
// Two kernels run the lanes (sampling/pwrs_kernels.h): one lane at a time
// on every CPU, or eight lanes per 512-bit register where the CPU has
// AVX-512 F, DQ, VL and BW. The CPU alone picks one, once per process;
// both draw the same numbers and select the same items.

#ifndef LIGHTRW_SAMPLING_PARALLEL_WRS_H_
#define LIGHTRW_SAMPLING_PARALLEL_WRS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::sampling {

// k-lane parallel WRS with a one-slot reservoir.
// Lane j draws from rng stream (stream_base + j).
class ParallelWrsSampler {
 public:
  // Most lanes a sampler may have: the accelerator config's maximum
  // sampler_parallelism. The scalar kernel holds its lanes in a local
  // array of this size, the AVX-512 kernel in up to 8 registers.
  static constexpr size_t kMaxLanes = 64;

  // k must be in [1, kMaxLanes]. `rng` must provide at least
  // stream_base + k streams and outlive this object.
  ParallelWrsSampler(size_t k, rng::ThunderingRng* rng,
                     size_t stream_base = 0);

  size_t parallelism() const { return k_; }

  void Reset() {
    weight_sum_ = 0;
    selected_ = kNoSample;
    batches_consumed_ = 0;
  }

  // Offers the next run of the stream as whole k-lane batches:
  // weights[0, k) is one batch, weights[k, 2k) the next, and so on. Only
  // the run's last batch may be short, and then it must be the stream's
  // last, matching the hardware, which masks off inactive lanes. Every
  // batch draws from the same stream offsets it would if offered alone,
  // so how a stream is cut into runs does not change the draws.
  // `base_index` is the stream index of weights[0].
  void OfferBatches(std::span<const Weight> weights, size_t base_index);

  // Streams an entire weight sequence through OfferBatches. Returns
  // selected().
  size_t SampleAll(std::span<const Weight> weights);

  size_t selected() const { return selected_; }
  uint64_t weight_sum() const { return weight_sum_; }
  uint64_t batches_consumed() const { return batches_consumed_; }

 private:
  size_t k_;
  rng::ThunderingRng* rng_;
  size_t stream_base_;
  uint64_t weight_sum_ = 0;
  size_t selected_ = kNoSample;
  uint64_t batches_consumed_ = 0;
};

}  // namespace lightrw::sampling

#endif  // LIGHTRW_SAMPLING_PARALLEL_WRS_H_
