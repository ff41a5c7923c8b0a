#include "graph/io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "graph/builder.h"

namespace lightrw::graph {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

StatusOr<CsrGraph> ReadEdgeList(const std::string& path, bool undirected) {
  std::ifstream in(path);
  if (!in) {
    return IoError("cannot open " + path);
  }
  std::vector<EdgeInput> edges;
  VertexId max_vertex = 0;
  // Whole lines, however long: a comment is skipped in full and every
  // error names the file's own line number.
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#' || line[0] == '%') {
      continue;
    }
    unsigned long long src = 0, dst = 0, weight = 1, relation = 0;
    const int fields = std::sscanf(line.c_str(), "%llu %llu %llu %llu", &src,
                                   &dst, &weight, &relation);
    if (fields < 2) {
      return InvalidArgumentError(path + ":" + std::to_string(line_number) +
                                  ": expected 'src dst [weight [relation]]'");
    }
    if (src >= kInvalidVertex || dst >= kInvalidVertex) {
      return OutOfRangeError(path + ":" + std::to_string(line_number) +
                             ": vertex id too large");
    }
    if (fields < 3) weight = 1;
    if (fields < 4) relation = 0;
    if (weight == 0 || weight > UINT32_MAX) {
      return OutOfRangeError(path + ":" + std::to_string(line_number) +
                             ": weight must be in [1, 2^32)");
    }
    if (relation > UINT8_MAX) {
      return OutOfRangeError(path + ":" + std::to_string(line_number) +
                             ": relation must be in [0, 256)");
    }
    edges.push_back(EdgeInput{static_cast<VertexId>(src),
                              static_cast<VertexId>(dst),
                              static_cast<Weight>(weight),
                              static_cast<Relation>(relation)});
    max_vertex = std::max({max_vertex, static_cast<VertexId>(src),
                           static_cast<VertexId>(dst)});
  }
  if (edges.empty()) {
    return InvalidArgumentError(path + ": no edges");
  }
  GraphBuilder builder(max_vertex + 1, undirected);
  builder.Reserve(edges.size());
  for (const EdgeInput& e : edges) {
    builder.AddEdge(e.src, e.dst, e.weight, e.relation);
  }
  return std::move(builder).Build();
}

Status WriteEdgeList(const CsrGraph& graph, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) {
    return IoError("cannot open " + path + " for writing");
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto neighbors = graph.Neighbors(v);
    const auto weights = graph.NeighborWeights(v);
    const auto relations = graph.NeighborRelations(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (std::fprintf(f.get(), "%u %u %u %u\n", v, neighbors[i], weights[i],
                       static_cast<unsigned>(relations[i])) < 0) {
        return IoError("write failed for " + path);
      }
    }
  }
  return Status::Ok();
}

}  // namespace lightrw::graph
