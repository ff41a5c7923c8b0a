// Reproduces paper Fig. 11: cache miss ratio of the degree-aware cache
// (DAC) vs a direct-mapped cache (DMC) for MetaPath on RMAT graphs of
// growing vertex count, with both caches holding 2^12 vertices.
//
// Paper result: below 2^12 vertices both miss ratios are ~0; beyond that
// DMC degrades toward 100% while DAC stays much lower (e.g. ~49% at 2^18).

#include "bench_util.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

constexpr uint32_t kCacheEntries = 1 << 12;

double MissRatio(const graph::CsrGraph& g, core::CacheKind kind) {
  const auto app = MakeMetaPath(g);
  core::AcceleratorConfig config = DefaultAccelConfig();
  config.num_instances = 1;  // one cache observes the whole access stream
  config.cache_kind = kind;
  config.cache_entries = kCacheEntries;
  core::CycleEngine engine(&g, app.get(), config);
  // A fixed query count (repeating start vertices on small graphs) so the
  // compulsory cold misses are amortized the same way at every scale.
  const auto queries = RepeatedQueries(g, kMetaPathLength, MaxQueries());
  const auto stats = engine.Run(queries);
  return stats.cache.MissRatio();
}

int Main() {
  const CellFormat pow2 = [](const obs::Json& scale) {
    return "2^" + std::to_string(scale.uint_value());
  };
  Table table(
      "Fig. 11: DAC vs DMC miss ratio, cache = 2^12 vertices "
      "(paper: DAC ~49% at 2^18 while DMC approaches 100%)",
      {{"rmat_scale", "rmat |V|", 16, pow2},
       {"dac_miss", "DAC miss", 14, Percent(1)},
       {"dmc_miss", "DMC miss", 14, Percent(1)},
       {"lru_miss", "LRU miss", 14, Percent(1)},
       {"fifo_miss", "FIFO miss", 14, Percent(1)}});
  for (uint32_t scale = 6; scale <= 20; scale += 2) {
    graph::RmatOptions options;
    options.scale = scale;
    options.edge_factor = 8;  // the paper's RMAT average degree
    // The paper's rmat graphs come from the Kronecker generator of Leskovec
    // et al., which is skewier than the Graph500 defaults; match that.
    options.a = 0.65;
    options.b = 0.18;
    options.c = 0.12;
    options.d = 0.05;
    // Undirected with two relation labels: walks survive the full metapath
    // far more often, so the access stream is dominated by walk-sampled
    // (degree-biased) lookups rather than uniform query starts — the regime
    // the degree-aware policy targets.
    options.undirected = true;
    options.num_relations = 2;
    options.seed = kBenchSeed;
    const graph::CsrGraph g = GenerateRmat(options);
    table.Add({uint64_t{scale}, MissRatio(g, core::CacheKind::kDegreeAware),
               MissRatio(g, core::CacheKind::kDirectMapped),
               MissRatio(g, core::CacheKind::kLru),
               MissRatio(g, core::CacheKind::kFifo)});
  }
  return Report("fig11_degree_cache", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
