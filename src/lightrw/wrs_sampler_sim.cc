#include "lightrw/wrs_sampler_sim.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"

namespace lightrw::core {

namespace {

// Bytes per weight-stream item (32-bit weights).
constexpr uint32_t kBytesPerItem = 4;
// Weight-stream items generated per sampler call, rounded down to whole
// batches.
constexpr uint64_t kChunkItems = 4096;

}  // namespace

WrsSamplerSim::WrsSamplerSim(uint32_t parallelism,
                             const hwsim::DramConfig& dram, uint64_t seed)
    : k_(parallelism), dram_(dram), seed_(seed) {
  LIGHTRW_CHECK(parallelism >= 1);
}

double WrsSamplerSim::MemoryItemsPerCycle() const {
  return static_cast<double>(dram_.bus_bytes) * dram_.efficiency /
         kBytesPerItem;
}

double WrsSamplerSim::TheoreticalItemsPerSecond() const {
  return static_cast<double>(k_) * dram_.clock_hz;
}

WrsSamplerSimResult WrsSamplerSim::RunStream(uint64_t items) {
  LIGHTRW_CHECK(items >= 1);
  WrsSamplerSimResult result;
  result.items = items;

  // Functional sampling over the generated weight stream.
  rng::ThunderingRng rng(k_, seed_);
  rng::Xoshiro256StarStar weight_gen(seed_ ^ 0xbeefULL);
  sampling::ParallelWrsSampler sampler(k_, &rng);
  // The stream is generated and offered in chunks of whole batches.
  const uint64_t chunk = k_ * std::max<uint64_t>(1, kChunkItems / k_);
  std::vector<graph::Weight> weights(std::min(items, chunk));
  sampler.Reset();
  for (uint64_t offset = 0; offset < items; offset += chunk) {
    const size_t n = static_cast<size_t>(std::min(chunk, items - offset));
    for (size_t i = 0; i < n; ++i) {
      weights[i] = static_cast<graph::Weight>(1 + weight_gen.NextBounded(256));
    }
    sampler.OfferBatches({weights.data(), n}, offset);
  }
  result.selected = sampler.selected();

  // Timing: the stream is sequential, so the memory system delivers at
  // near-peak bandwidth; the sampler consumes k per cycle. Pipeline fill is
  // the DRAM access latency plus the log-depth prefix/compare/select tree.
  const double consume_cycles =
      static_cast<double>(CeilDiv(items, k_));
  const double supply_cycles =
      static_cast<double>(items) / MemoryItemsPerCycle();
  const double fill_cycles =
      dram_.access_latency_cycles + CeilLog2(k_ + 1) + 8;
  const double cycles =
      fill_cycles + std::max(consume_cycles, supply_cycles);
  result.cycles = static_cast<uint64_t>(std::llround(cycles));
  result.seconds = cycles / dram_.clock_hz;
  result.items_per_second = static_cast<double>(items) / result.seconds;
  result.bytes_per_second = result.items_per_second * kBytesPerItem;
  return result;
}

}  // namespace lightrw::core
