#include "sampling/parallel_wrs.h"

#include <algorithm>

#include "common/check.h"

namespace lightrw::sampling {

ParallelWrsSampler::ParallelWrsSampler(size_t k, rng::ThunderingRng* rng,
                                       size_t stream_base)
    : k_(k), rng_(rng), stream_base_(stream_base) {
  LIGHTRW_CHECK(k >= 1 && k <= kMaxLanes);
  LIGHTRW_CHECK(rng != nullptr);
  LIGHTRW_CHECK(stream_base + k <= rng->num_streams());
}

void ParallelWrsSampler::OfferBatches(std::span<const Weight> weights,
                                      size_t base_index) {
  const size_t n = weights.size();
  // The lanes this run uses, held in locals for the whole call: stores to
  // the generator's storage would make every lane reload the running sum
  // and the selection. No batch is wider than min(k, n), so the loop
  // reads only the lanes the copy fills; clearing all 64 would cost more
  // than a short run's draws.
  const std::span<rng::ThunderingRng::Stream> streams =
      rng_->streams(stream_base_, std::min(k_, n));
  rng::ThunderingRng::Stream lanes[kMaxLanes];
  std::copy(streams.begin(), streams.end(), lanes);

  // Per batch, steps (a)-(d) of Fig. 4 fused into one pass: the inclusive
  // prefix sum (log-depth in hardware, sequential here), each lane's
  // Eq. (8) test against its own stream, and the highest-selected-lane
  // reduction. Testing lanes in stream order and keeping the last hit is
  // that reduction: the latest candidate replaces the reservoir.
  // Zero-weight lanes are masked off and draw no random number; the
  // per-stream draw sequence is part of the determinism contract.
  uint64_t sum = weight_sum_;  // inclusive running sum S_j
  size_t selected = selected_;
  uint64_t batches = batches_consumed_;
  for (size_t first = 0; first < n; first += k_) {
    const size_t lanes_in_batch = std::min(k_, n - first);
    for (size_t j = 0; j < lanes_in_batch; ++j) {
      const Weight w = weights[first + j];
      sum += w;
      if (w == 0) {
        continue;
      }
      const uint32_t r = lanes[j].Draw();
      // While S_j < 2^32, both sides of Eq. (8) fit in 64 bits: w << 32
      // and r * S_j + w <= (2^32 - 1) * 2^32. Past that, WrsSelect's
      // 128-bit form.
      const bool hit = sum <= UINT32_MAX
                           ? (uint64_t{w} << 32) > uint64_t{r} * sum + w
                           : WrsSelect(w, sum, r);
      if (hit) {
        selected = base_index + first + j;
      }
    }
    ++batches;
  }
  std::copy(lanes, lanes + streams.size(), streams.begin());
  weight_sum_ = sum;
  selected_ = selected;
  batches_consumed_ = batches;
}

size_t ParallelWrsSampler::SampleAll(std::span<const Weight> weights) {
  Reset();
  OfferBatches(weights, 0);
  return selected_;
}

}  // namespace lightrw::sampling
