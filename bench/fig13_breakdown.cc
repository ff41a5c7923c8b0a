// Reproduces paper Fig. 13: performance breakdown of the three proposed
// techniques. Each technique is disabled one at a time and the performance
// loss relative to the all-enabled configuration is reported.
//
// Paper result: WRS pipelining contributes the most (41-79%, largest on
// Node2Vec); the dynamic burst engine helps Node2Vec less (its extra
// row-index traffic eats the bandwidth); the degree-aware cache helps
// MetaPath more than Node2Vec (up to 6% on uk2002).

#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

uint64_t RunCycles(const graph::CsrGraph& g, const apps::WalkApp& app,
                   std::span<const apps::WalkQuery> queries,
                   const core::AcceleratorConfig& config) {
  core::CycleEngine engine(&g, &app, config);
  return engine.Run(queries).cycles;
}

int Main() {
  // Each cell is the percentage of performance lost when the technique is
  // disabled: 100 x (1 - t_all / t_disabled).
  Table table(
      "Fig. 13: performance lost when disabling one technique "
      "(paper: WRS 41-79% and largest; DYB small on Node2Vec; DAC helps "
      "MetaPath more)",
      {{"dataset", "dataset", 10},
       {"app", "app", 10},
       {"wrs_loss_pct", "WRS off", 12, Num(1, "%")},
       {"dyb_loss_pct", "DYB off", 12, Num(1, "%")},
       {"dac_loss_pct", "DAC off", 12, Num(1, "%")}});
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const auto queries =
          StandardQueries(g, node2vec ? kNode2VecLength : kMetaPathLength);

      core::AcceleratorConfig all = DefaultAccelConfig();
      all.num_instances = 1;
      core::AcceleratorConfig no_wrs = all;
      no_wrs.enable_wrs_pipeline = false;
      core::AcceleratorConfig no_dyb = all;
      no_dyb.burst = core::BurstStrategy{1, 0};
      core::AcceleratorConfig no_dac = all;
      no_dac.cache_kind = core::CacheKind::kNone;

      const double base =
          static_cast<double>(RunCycles(g, *app, queries, all));
      const auto loss_pct = [&](const core::AcceleratorConfig& disabled) {
        return (1.0 - base / RunCycles(g, *app, queries, disabled)) * 100.0;
      };
      table.Add({graph::GetDatasetInfo(dataset).name, app->name(),
                 loss_pct(no_wrs), loss_pct(no_dyb), loss_pct(no_dac)});
    }
  }
  return Report("fig13_breakdown", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
