// Degree-distribution statistics used by the cache and burst analyses.

#ifndef LIGHTRW_GRAPH_STATS_H_
#define LIGHTRW_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace lightrw::graph {

struct DegreeStats {
  uint32_t max_degree = 0;
  double average_degree = 0.0;
  double median_degree = 0.0;
  // Fraction of all edges owned by the top `hot_fraction` of vertices by
  // degree — the power-law concentration that motivates the degree-aware
  // cache (paper §5.1).
  double top1pct_edge_share = 0.0;
  double top10pct_edge_share = 0.0;
  // Gini coefficient of the degree distribution (0 = uniform).
  double degree_gini = 0.0;
};

DegreeStats ComputeDegreeStats(const CsrGraph& graph);

// Vertices sorted by descending degree (ties by ascending id).
std::vector<VertexId> VerticesByDegreeDescending(const CsrGraph& graph);

}  // namespace lightrw::graph

#endif  // LIGHTRW_GRAPH_STATS_H_
