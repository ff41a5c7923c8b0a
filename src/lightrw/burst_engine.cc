#include "lightrw/burst_engine.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"

namespace lightrw::core {

BurstPlan PlanBursts(uint64_t bytes, const BurstStrategy& strategy,
                     uint32_t bus_bytes) {
  LIGHTRW_CHECK(strategy.short_beats >= 1);
  BurstPlan plan;
  if (bytes == 0) {
    return plan;
  }
  const uint64_t s2 = static_cast<uint64_t>(strategy.short_beats) * bus_bytes;
  if (strategy.long_beats == 0) {
    plan.short_bursts = static_cast<uint32_t>(CeilDiv(bytes, s2));
    plan.loaded_bytes = static_cast<uint64_t>(plan.short_bursts) * s2;
    return plan;
  }
  const uint64_t s1 = static_cast<uint64_t>(strategy.long_beats) * bus_bytes;
  plan.long_bursts = static_cast<uint32_t>(bytes / s1);
  const uint64_t remainder = bytes - plan.long_bursts * s1;
  plan.short_bursts = static_cast<uint32_t>(CeilDiv(remainder, s2));
  plan.loaded_bytes = plan.long_bursts * s1 +
                      static_cast<uint64_t>(plan.short_bursts) * s2;
  return plan;
}

DynamicBurstEngine::DynamicBurstEngine(hwsim::DramChannel* channel,
                                       const BurstStrategy& strategy)
    : channel_(channel), strategy_(strategy) {
  LIGHTRW_CHECK(channel != nullptr);
}

hwsim::Cycle DynamicBurstEngine::Fetch(hwsim::Cycle ready, uint64_t bytes) {
  if (bytes == 0) {
    return ready;
  }
  const uint32_t bus = channel_->config().bus_bytes;
  const BurstPlan plan = PlanBursts(bytes, strategy_, bus);

  ++stats_.requests;
  stats_.long_bursts += plan.long_bursts;
  stats_.short_bursts += plan.short_bursts;
  stats_.requested_bytes += bytes;
  stats_.loaded_bytes += plan.loaded_bytes;

  // The long and short pipelines issue independently through the memory
  // crossbar; the channel model serializes their occupancy. The step
  // completes when the slowest burst has delivered (Intra Burst Merge).
  const hwsim::Cycle long_done =
      channel_->AccessMany(ready, strategy_.long_beats, plan.long_bursts);
  const hwsim::Cycle short_done =
      channel_->AccessMany(ready, strategy_.short_beats, plan.short_bursts);
  channel_->ReportUseful(bytes);
  return std::max(long_done, short_done);
}

}  // namespace lightrw::core
