// Dynamic burst engine (paper §5.2).
//
// Adjacency lists have wildly varying byte lengths; a fixed burst size
// either wastes bandwidth (short bursts pay the per-request issue gap) or
// fetches unused data (long bursts overshoot short lists). The dynamic
// burst engine splits a c-byte request into floor(c/S1) long bursts plus
// ceil((c - floor(c/S1)*S1) / S2) short bursts, so at most S2 bytes of the
// fetch are wasted while the bulk moves at long-burst bandwidth.

#ifndef LIGHTRW_LIGHTRW_BURST_ENGINE_H_
#define LIGHTRW_LIGHTRW_BURST_ENGINE_H_

#include <cstdint>

#include "hwsim/dram.h"
#include "lightrw/config.h"

namespace lightrw::core {

// The command split for one request (output of the Burst cmd Generator).
struct BurstPlan {
  uint32_t long_bursts = 0;
  uint32_t short_bursts = 0;
  uint64_t loaded_bytes = 0;  // >= requested bytes; excess <= one short burst
};

// Computes the command split for a request of `bytes` bytes under
// `strategy` with the given bus width. Burst lengths in the strategy are
// in beats (bus words); strategy.long_beats == 0 routes everything through
// the short pipeline.
BurstPlan PlanBursts(uint64_t bytes, const BurstStrategy& strategy,
                     uint32_t bus_bytes);

// Cumulative burst engine statistics.
struct BurstStats {
  uint64_t requests = 0;       // adjacency fetch requests
  uint64_t long_bursts = 0;
  uint64_t short_bursts = 0;
  uint64_t requested_bytes = 0;
  uint64_t loaded_bytes = 0;

  BurstStats& operator+=(const BurstStats& o) {
    requests += o.requests;
    long_bursts += o.long_bursts;
    short_bursts += o.short_bursts;
    requested_bytes += o.requested_bytes;
    loaded_bytes += o.loaded_bytes;
    return *this;
  }

  // Paper's "ratio of valid data": requested / loaded.
  double ValidDataRatio() const {
    return loaded_bytes == 0
               ? 1.0
               : static_cast<double>(requested_bytes) / loaded_bytes;
  }
};

// Stateful engine bound to one DRAM channel: plans each request and issues
// the resulting bursts, returning the data-complete cycle.
class DynamicBurstEngine {
 public:
  // `channel` must outlive the engine.
  DynamicBurstEngine(hwsim::DramChannel* channel,
                     const BurstStrategy& strategy);

  // Fetches `bytes` starting at `ready`; returns the cycle when the last
  // beat has arrived. A zero-byte fetch completes immediately.
  hwsim::Cycle Fetch(hwsim::Cycle ready, uint64_t bytes);

  const BurstStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BurstStats{}; }
  const BurstStrategy& strategy() const { return strategy_; }

 private:
  hwsim::DramChannel* channel_;
  BurstStrategy strategy_;
  BurstStats stats_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_BURST_ENGINE_H_
