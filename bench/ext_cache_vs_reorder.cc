// Extension experiment (paper §5.1 related-work contrast): the degree-
// aware cache needs no preprocessing, while prior work (Balaji & Lucia)
// reaches a similar effect by degree-sorting the vertex ids offline so a
// conventional cache maps the hot vertices densely. This bench compares,
// for MetaPath on RMAT graphs:
//   - DAC on the original graph (LightRW's approach, zero preprocessing)
//   - DMC on the original graph
//   - DMC on the degree-sorted relabeled graph (preprocessing approach)
// and reports the preprocessing time the relabeling costs.

#include "bench_util.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

double MissRatio(const graph::CsrGraph& g, core::CacheKind kind) {
  const auto app = MakeMetaPath(g);
  core::AcceleratorConfig config = DefaultAccelConfig();
  config.num_instances = 1;
  config.cache_kind = kind;
  config.cache_entries = 1 << 12;
  core::CycleEngine engine(&g, app.get(), config);
  const auto queries = RepeatedQueries(g, kMetaPathLength, MaxQueries());
  return engine.Run(queries).cache.MissRatio();
}

int Main() {
  const CellFormat pow2 = [](const obs::Json& scale) {
    return "2^" + std::to_string(scale.uint_value());
  };
  Table table(
      "Extension: runtime degree-aware cache vs offline degree-sorted "
      "relabeling (paper §5.1: prior work needs preprocessing, DAC none)",
      {{"rmat_scale", "rmat |V|", 12, pow2},
       {"dac_miss", "DAC miss", 12, Percent(1)},
       {"dmc_miss", "DMC miss", 12, Percent(1)},
       {"sorted_dmc_miss", "sorted+DMC miss", 16, Percent(1)},
       {"preprocess_s", "preprocess s", 14, Num(3)}});
  for (uint32_t scale = 14; scale <= 18; scale += 2) {
    graph::RmatOptions options;
    options.scale = scale;
    options.edge_factor = 8;
    options.a = 0.65;
    options.b = 0.18;
    options.c = 0.12;
    options.d = 0.05;
    options.undirected = true;
    options.num_relations = 2;
    options.seed = kBenchSeed;
    const graph::CsrGraph g = GenerateRmat(options);

    const double dac_miss = MissRatio(g, core::CacheKind::kDegreeAware);
    const double dmc_miss = MissRatio(g, core::CacheKind::kDirectMapped);
    WallTimer timer;
    const graph::RelabeledGraph sorted = graph::SortByDegree(g);
    const double preprocess_s = timer.ElapsedSeconds();
    table.Add({uint64_t{scale}, dac_miss, dmc_miss,
               MissRatio(sorted.graph, core::CacheKind::kDirectMapped),
               preprocess_s});
  }
  return Report("ext_cache_vs_reorder", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
