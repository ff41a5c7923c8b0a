#include "graph/transforms.h"

#include <algorithm>

#include "graph/builder.h"
#include "graph/stats.h"

namespace lightrw::graph {

RelabeledGraph SortByDegree(const CsrGraph& graph) {
  RelabeledGraph result;
  result.old_id = VerticesByDegreeDescending(graph);
  result.new_id.resize(graph.num_vertices());
  for (VertexId rank = 0; rank < graph.num_vertices(); ++rank) {
    result.new_id[result.old_id[rank]] = rank;
  }

  GraphBuilder builder(graph.num_vertices(), /*undirected=*/false);
  builder.Reserve(graph.num_edges());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    builder.SetVertexLabel(result.new_id[v], graph.VertexLabel(v));
    const auto neighbors = graph.Neighbors(v);
    const auto weights = graph.NeighborWeights(v);
    const auto relations = graph.NeighborRelations(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      builder.AddEdge(result.new_id[v], result.new_id[neighbors[i]],
                      weights[i], relations[i]);
    }
  }
  result.graph = std::move(builder).Build();
  return result;
}

}  // namespace lightrw::graph
