// Reproduces paper Table 1: top-down profiling of the CPU baseline on
// MetaPath and Node2Vec over liveJournal and uk-2002.
//
// vTune is unavailable here; the engine's LLC model and cycle cost model
// produce the same three metrics (see baseline/engine.cc). Paper values:
// LLC miss 58.2-76.9%, memory bound 31.2-59.9%, retiring 8.2-33.6%, with
// Node2Vec less memory bound and higher retiring than MetaPath.

#include <algorithm>

#include "baseline/engine.h"
#include "bench_util.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Table 1: CPU GDRW profiling proxies (paper: LLC miss 58-77%, "
      "memory bound 31-60%, retiring 8-34%)",
      {{"app", "app", 10},
       {"graph", "graph", 14},
       {"llc_miss", "LLC miss", 12, Percent(1)},
       {"memory_bound", "memory bound", 16, Percent(1)},
       {"retiring", "retiring", 12, Percent(1)}});
  for (const graph::Dataset dataset :
       {graph::Dataset::kLiveJournal, graph::Dataset::kUk2002}) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const auto queries =
          StandardQueries(g, node2vec ? kNode2VecLength : kMetaPathLength);
      baseline::BaselineConfig config;
      config.collect_profile = true;
      // Scale the modeled LLC with the graph stand-ins so capacity pressure
      // matches the paper's full-scale setup (35.75 MB against tens of GB
      // of graph data).
      config.llc_bytes =
          std::max<uint64_t>(1ull << 14, (32ull << 20) >> ScaleShift());
      baseline::BaselineEngine engine(&g, app.get(), config);
      const auto profile = engine.Run(queries).profile;
      table.Add({app->name(), graph::GetDatasetInfo(dataset).full_name,
                 profile.LlcMissRatio(), profile.memory_bound,
                 profile.retiring_ratio});
    }
  }
  return Report("table1_cpu_profile", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
