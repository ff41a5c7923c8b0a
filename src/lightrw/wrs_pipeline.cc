#include "lightrw/wrs_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "sampling/sampler.h"

namespace lightrw::core {

namespace {

// A batch annotated with the cycle at which it leaves a pipelined stage
// (stages have log-depth latency but initiate one batch per cycle).
template <typename T>
struct Timed {
  T payload;
  hwsim::Cycle available = 0;
};

}  // namespace

WrsPipelineSim::WrsPipelineSim(const WrsPipelineConfig& config)
    : config_(config) {
  LIGHTRW_CHECK(config.parallelism >= 1);
  LIGHTRW_CHECK(config.feed_items_per_kcycle >= 1);
  LIGHTRW_CHECK(config.fifo_depth >= 1);
}

WrsPipelineResult WrsPipelineSim::Run(std::vector<graph::Weight> weights) {
  const uint32_t k = config_.parallelism;
  const uint32_t prefix_latency = CeilLog2(static_cast<uint64_t>(k) + 1);
  const uint32_t select_latency = prefix_latency + 2;  // compare + max tree

  rng::ThunderingRng rng(k, config_.seed);

  // Inter-stage FIFOs (Fig. 4): feed -> accumulator -> selector -> output.
  hwsim::Fifo<graph::Weight> feed_fifo(
      std::max<uint32_t>(2 * k, config_.fifo_depth * k));
  // FIFO capacity covers the downstream stage's pipeline registers (items
  // "in flight" inside the stage) plus the configured stream depth, so the
  // modeled latency never throttles a fully pipelined stream.
  hwsim::Fifo<Timed<Batch>> accum_fifo(config_.fifo_depth + prefix_latency);
  hwsim::Fifo<Timed<std::pair<size_t, bool>>> select_fifo(
      config_.fifo_depth + select_latency);

  WrsPipelineResult result;
  result.items = weights.size();
  result.selected = sampling::kNoSample;

  size_t fed = 0;               // items delivered by the memory feed
  size_t consumed = 0;          // items taken by the accumulator
  size_t retired_batches = 0;
  const size_t total_batches = CeilDiv(weights.size(), k);
  uint64_t weight_sum = 0;      // accumulator's running w_sum^i
  uint64_t feed_credit = 0;     // fractional feed accumulator (1/1024ths)

  hwsim::Cycle cycle = 0;
  // Hard bound: every batch needs at most a few cycles end to end.
  const hwsim::Cycle cycle_limit =
      (static_cast<hwsim::Cycle>(weights.size()) + 64) * (k + 64);

  while (retired_batches < total_batches) {
    LIGHTRW_CHECK(cycle < cycle_limit);

    // Output stage: retire at most one selection per cycle.
    if (select_fifo.CanPop() &&
        select_fifo.Front().available <= cycle) {
      const auto timed = select_fifo.Pop();
      if (timed.payload.second) {
        result.selected = timed.payload.first;
      }
      ++retired_batches;
    }

    // Selector: one batch per cycle; k comparators draw from their own
    // PRNG streams; the max-index tree keeps the latest candidate.
    if (accum_fifo.CanPop() && select_fifo.CanPush() &&
        accum_fifo.Front().available <= cycle) {
      const auto timed = accum_fifo.Pop();
      const Batch& batch = timed.payload;
      size_t selected_lane = sampling::kNoSample;
      for (size_t j = 0; j < batch.weights.size(); ++j) {
        if (batch.weights[j] == 0) {
          continue;
        }
        const uint32_t r = rng.Next(j);
        if (sampling::WrsSelect(batch.weights[j], batch.inclusive_sum[j],
                                r)) {
          selected_lane = j;
        }
      }
      Timed<std::pair<size_t, bool>> out;
      out.available = cycle + select_latency;
      const bool has_candidate = selected_lane != sampling::kNoSample;
      out.payload = {has_candidate ? batch.base_index + selected_lane : 0,
                     has_candidate};
      select_fifo.Push(out);
    }

    // Weight Accumulator: consume up to k items per cycle once a full
    // batch (or the stream tail) is buffered; compute the prefix sums.
    const size_t available = feed_fifo.size();
    const size_t remaining = weights.size() - consumed;
    const size_t want = std::min<size_t>(k, remaining);
    if (want > 0 && available >= want && accum_fifo.CanPush()) {
      Batch batch;
      batch.base_index = consumed;
      uint64_t running = weight_sum;
      for (size_t j = 0; j < want; ++j) {
        const graph::Weight w = feed_fifo.Pop();
        running += w;
        batch.weights.push_back(w);
        batch.inclusive_sum.push_back(running);
      }
      weight_sum = running;
      consumed += want;
      Timed<Batch> timed;
      timed.available = cycle + prefix_latency;
      timed.payload = std::move(batch);
      accum_fifo.Push(timed);
    }

    // Memory feed: deliver items at the configured fractional rate.
    feed_credit += config_.feed_items_per_kcycle;
    while (feed_credit >= 1024 && fed < weights.size() &&
           feed_fifo.CanPush()) {
      feed_fifo.Push(weights[fed++]);
      feed_credit -= 1024;
    }
    if (feed_credit >= 1024 && fed < weights.size()) {
      feed_credit = 1024;  // backpressure: the feed stalls, credit caps
    }

    result.accumulator_max_occupancy =
        std::max(result.accumulator_max_occupancy, accum_fifo.size());
    result.selector_max_occupancy =
        std::max(result.selector_max_occupancy, select_fifo.size());
    ++cycle;
  }

  result.cycles = cycle;
  return result;
}

}  // namespace lightrw::core
