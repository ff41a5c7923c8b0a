// Reproduces paper Table 5: FPGA resource utilization and clock frequency
// of the MetaPath and Node2Vec accelerator configurations on the U250.
//
// Utilization comes from the calibrated ResourceModel (no Vivado run is
// possible here). Paper values: MetaPath 33.52% LUT / 29.76% REG /
// 17.24% BRAM / 5.16% DSP; Node2Vec 20.84% / 18.20% / 36.12% / 2.62%;
// both at 300 MHz.

#include "bench_util.h"
#include "lightrw/platform_models.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Table 5: modeled U250 resource utilization "
      "(paper: MetaPath 33.52/29.76/17.24/5.16%, "
      "Node2Vec 20.84/18.20/36.12/2.62%, both 300 MHz)",
      {{"app", "app", 10},
       {"lut_pct", "LUTs", 10, Num(2, "%")},
       {"reg_pct", "REGs", 10, Num(2, "%")},
       {"bram_pct", "BRAMs", 10, Num(2, "%")},
       {"dsp_pct", "DSPs", 10, Num(2, "%")},
       {"frequency_mhz", "frequency", 12, Num(0, "MHz")}});
  const core::ResourceModel model;
  for (const bool node2vec : {false, true}) {
    core::AcceleratorConfig config = DefaultAccelConfig();
    if (node2vec) {
      // The Node2Vec build trades sampler lanes (its throughput is bounded
      // by the extra row-index/membership traffic anyway) for the large
      // on-chip previous-adjacency buffer.
      config.sampler_parallelism = 8;
      config.prev_neighbor_buffer_edges = 65536;
    } else {
      config.sampler_parallelism = 16;
    }
    const core::ResourceUsage usage = model.TotalUsage(config, node2vec);
    table.Add({node2vec ? "Node2Vec" : "MetaPath", model.LutPercent(usage),
               model.RegPercent(usage), model.BramPercent(usage),
               model.DspPercent(usage), uint64_t{300}});
  }
  return Report("table5_resources", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
