// Graph transformation: degree-sorted relabeling.
//
// Degree-sorted relabeling is the preprocessing alternative to the
// degree-aware cache that the paper contrasts in §5.1 (Balaji & Lucia):
// renumber vertices in descending degree order so hot vertices occupy a
// dense id range that a plain cache maps well — at the cost of an offline
// pass over the whole graph, which LightRW's runtime DAC avoids.

#ifndef LIGHTRW_GRAPH_TRANSFORMS_H_
#define LIGHTRW_GRAPH_TRANSFORMS_H_

#include <vector>

#include "graph/csr.h"

namespace lightrw::graph {

// The result of a relabeling transform.
struct RelabeledGraph {
  CsrGraph graph;
  // new_id[v] is v's id in the relabeled graph.
  std::vector<VertexId> new_id;
  // old_id[v'] is the original id of relabeled vertex v'.
  std::vector<VertexId> old_id;
};

// Renumbers vertices in descending degree order (ties by original id) and
// rebuilds the CSR with translated endpoints and preserved attributes.
RelabeledGraph SortByDegree(const CsrGraph& graph);

}  // namespace lightrw::graph

#endif  // LIGHTRW_GRAPH_TRANSFORMS_H_
