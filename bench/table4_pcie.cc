// Reproduces paper Table 4: the proportion of PCIe data transfer time in
// the end-to-end execution time of MetaPath and Node2Vec.
//
// The kernel is simulated with a capped query count and extrapolated
// linearly to the paper's query count (= number of non-isolated vertices),
// as are the query/result transfer bytes; the graph image transfer is
// independent of the query count.
//
// Paper result: MetaPath 15.3-33.5% (short walks barely amortize the
// transfer), Node2Vec 0.07-1.10% (80-step walks dwarf it).

#include "bench_util.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/platform_models.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Table 4: PCIe transfer share of end-to-end time "
      "(paper: MetaPath 15.3-33.5%, Node2Vec 0.07-1.10%)",
      {{"app", "app", 10},
       {"dataset", "dataset", 12},
       {"pcie_share", "PCIe share", 12, Percent(2)}});
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const uint32_t length = node2vec ? kNode2VecLength : kMetaPathLength;
      const auto queries = StandardQueries(g, length);
      const core::AcceleratorConfig config = DefaultAccelConfig();
      core::CycleEngine accel(&g, app.get(), config);
      const auto stats = accel.Run(queries);

      // Extrapolate kernel time from the capped query set to the paper's
      // one-query-per-vertex setting.
      const uint64_t full_queries = g.CountNonIsolatedVertices();
      const double scale = static_cast<double>(full_queries) /
                           static_cast<double>(queries.size());
      const double kernel_seconds = stats.seconds * scale;

      core::PcieModel pcie;
      const double graph_seconds =
          pcie.TransferSeconds(g.ModeledByteSize() * config.num_instances);
      const uint64_t query_result_bytes =
          full_queries * 8 +
          full_queries * (static_cast<uint64_t>(length) + 1) * 4;
      const double io_seconds =
          graph_seconds + pcie.TransferSeconds(query_result_bytes);
      table.Add({app->name(), graph::GetDatasetInfo(dataset).name,
                 io_seconds / (io_seconds + kernel_seconds)});
    }
  }
  return Report("table4_pcie", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
