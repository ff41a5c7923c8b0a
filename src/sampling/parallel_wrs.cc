#include "sampling/parallel_wrs.h"

#include "common/check.h"
#include "sampling/pwrs_kernels.h"

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
  // The CPU's features pick the kernel, once: the static is initialized
  // on the first call, and nothing else selects it.
  static const pwrs::Kernel kernel = pwrs::MissingAvx512Feature() == nullptr
                                         ? pwrs::OfferBatchesAvx512
                                         : pwrs::OfferBatchesScalar;
  pwrs::Run run{weight_sum_, selected_, batches_consumed_};
  kernel(weights, base_index, k_, rng_->streams(stream_base_, k_), &run);
  weight_sum_ = run.weight_sum;
  selected_ = run.selected;
  batches_consumed_ = run.batches;
}

size_t ParallelWrsSampler::SampleAll(std::span<const Weight> weights) {
  Reset();
  OfferBatches(weights, 0);
  return selected_;
}

}  // namespace lightrw::sampling
