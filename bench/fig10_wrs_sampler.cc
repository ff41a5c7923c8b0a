// Reproduces paper Fig. 10: throughput of the WRS Sampler module.
//  (a) throughput vs degree of parallelism k — linear up to the DRAM line
//      rate, which is reached at k=16;
//  (b) throughput vs stream length at k=16 — near line rate except for a
//      small pipeline-fill penalty on tiny streams.

#include "bench_util.h"
#include "lightrw/wrs_sampler_sim.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table by_k(
      "Fig. 10a: WRS sampler throughput vs parallelism k "
      "(paper: linear until DRAM line rate at k=16)",
      {{"sweep", ""},
       {"k", "k", 6},
       {"measured_gitems_per_s", "measured Git/s", 18},
       {"theoretical_gitems_per_s", "theoretical Git/s", 20},
       {"bandwidth_gbs", "bandwidth GB/s", 18}});
  for (const uint64_t k : {1, 2, 4, 8, 16, 32}) {
    core::WrsSamplerSim sim(static_cast<uint32_t>(k), hwsim::DramConfig{},
                            kBenchSeed);
    const double theoretical = sim.TheoreticalItemsPerSecond() / 1e9;
    const auto result = sim.RunStream(1 << 20);
    by_k.Add({"parallelism", k, result.items_per_second / 1e9, theoretical,
              result.bytes_per_second / 1e9});
  }

  Table by_length(
      "Fig. 10b: WRS sampler throughput vs stream length at k=16 "
      "(paper: line rate, small pipeline-fill penalty on tiny streams)",
      {{"sweep", ""},
       {"items", "items", 12},
       {"measured_gitems_per_s", "measured Git/s", 18}});
  for (uint64_t items = 1 << 6; items <= (1 << 16); items <<= 2) {
    core::WrsSamplerSim sim(16, hwsim::DramConfig{}, kBenchSeed);
    by_length.Add({"stream_length", items,
                   sim.RunStream(items).items_per_second / 1e9});
  }
  return Report("fig10_wrs_sampler", {by_k, by_length});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
