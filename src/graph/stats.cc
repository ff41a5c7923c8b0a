#include "graph/stats.h"

#include <algorithm>
#include <numeric>

namespace lightrw::graph {

std::vector<VertexId> VerticesByDegreeDescending(const CsrGraph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    const uint32_t da = graph.Degree(a);
    const uint32_t db = graph.Degree(b);
    return da != db ? da > db : a < b;
  });
  return order;
}

DegreeStats ComputeDegreeStats(const CsrGraph& graph) {
  DegreeStats stats;
  const VertexId n = graph.num_vertices();
  if (n == 0) {
    return stats;
  }
  std::vector<uint32_t> degrees(n);
  for (VertexId v = 0; v < n; ++v) {
    degrees[v] = graph.Degree(v);
  }
  std::sort(degrees.begin(), degrees.end());
  stats.max_degree = degrees.back();
  stats.average_degree = graph.AverageDegree();
  stats.median_degree = n % 2 == 1
                            ? degrees[n / 2]
                            : 0.5 * (degrees[n / 2 - 1] + degrees[n / 2]);

  const uint64_t total_edges = graph.num_edges();
  if (total_edges > 0) {
    auto top_share = [&](double fraction) {
      const size_t k = std::max<size_t>(1, static_cast<size_t>(fraction * n));
      uint64_t covered = 0;
      for (size_t i = 0; i < k; ++i) {
        covered += degrees[n - 1 - i];
      }
      return static_cast<double>(covered) / static_cast<double>(total_edges);
    };
    stats.top1pct_edge_share = top_share(0.01);
    stats.top10pct_edge_share = top_share(0.10);

    // Gini over the ascending-sorted degree sequence.
    double weighted = 0.0;
    for (VertexId i = 0; i < n; ++i) {
      weighted += static_cast<double>(i + 1) * degrees[i];
    }
    const double mean = static_cast<double>(total_edges) / n;
    stats.degree_gini =
        (2.0 * weighted) / (n * n * mean) - (static_cast<double>(n) + 1) / n;
  }
  return stats;
}

}  // namespace lightrw::graph
