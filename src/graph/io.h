// Graph serialization: whitespace-separated edge-list text files.

#ifndef LIGHTRW_GRAPH_IO_H_
#define LIGHTRW_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/csr.h"

namespace lightrw::graph {

// Reads an edge list. Each non-comment line is
//   src dst [weight [relation]]
// Empty lines and lines starting with '#' or '%' are skipped, whatever
// their length. Vertex ids are dense non-negative integers; the vertex
// count is max id + 1.
StatusOr<CsrGraph> ReadEdgeList(const std::string& path, bool undirected);

// Writes "src dst weight relation" lines for every directed edge.
Status WriteEdgeList(const CsrGraph& graph, const std::string& path);

}  // namespace lightrw::graph

#endif  // LIGHTRW_GRAPH_IO_H_
