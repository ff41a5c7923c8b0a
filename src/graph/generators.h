// Synthetic graph generators.
//
// The paper evaluates on five public graphs (youtube, us-patents,
// liveJournal, orkut, uk2002) plus RMAT synthetics. The public datasets are
// not available offline, so MakeDatasetStandIn produces RMAT-based graphs
// matching each dataset's |V|, |E|, directedness, and degree skew, optionally
// scaled down by a power of two so the full benchmark suite runs quickly.

#ifndef LIGHTRW_GRAPH_GENERATORS_H_
#define LIGHTRW_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>

#include "graph/csr.h"
#include "graph/types.h"

namespace lightrw::graph {

// Every generator gives each vertex a uniform random label in
// [0, kNumVertexLabels) and each edge a uniform random weight in
// [1, kMaxEdgeWeight] (GraphBuilder::RandomizeAttributes).
inline constexpr uint8_t kNumVertexLabels = 4;
inline constexpr Weight kMaxEdgeWeight = 16;

// Options for the recursive-matrix (R-MAT) generator of Chakrabarti et al.
struct RmatOptions {
  // Number of vertices is 2^scale.
  uint32_t scale = 12;
  // Number of generated edges is edge_factor * 2^scale (before dedup).
  uint32_t edge_factor = 8;
  // Quadrant probabilities; must sum to 1. Defaults are the Graph500
  // parameters, which give a power-law degree distribution.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  bool undirected = false;
  uint64_t seed = 1;
  // Relation ids are drawn uniformly from [0, num_relations).
  uint8_t num_relations = 4;
};

// Generates an R-MAT graph. Duplicate edges are removed, so the final edge
// count is slightly below edge_factor * 2^scale.
CsrGraph GenerateRmat(const RmatOptions& options);

// Generates a uniform random (Erdős–Rényi G(n, m)) graph: m edges with
// independently uniform endpoints. The generator tests use it as the
// non-skewed contrast to R-MAT's degree distribution.
CsrGraph GenerateErdosRenyi(VertexId num_vertices, uint64_t num_edges,
                            bool undirected, uint64_t seed);

// The five real-world datasets of the paper's Table 2.
enum class Dataset {
  kYoutube,      // YT: 1.14M / 2.99M, undirected, web
  kUsPatents,    // UP: 3.78M / 16.52M, directed, citation
  kLiveJournal,  // LJ: 4.8M / 68.9M, undirected, social
  kOrkut,        // OR: 3.1M / 117.2M, undirected, social
  kUk2002,       // UK: 18.52M / 298.11M, directed, web crawl
};

inline constexpr Dataset kAllDatasets[] = {
    Dataset::kYoutube, Dataset::kUsPatents, Dataset::kLiveJournal,
    Dataset::kOrkut, Dataset::kUk2002};

// Shape parameters of a dataset stand-in.
struct DatasetInfo {
  const char* name;        // paper's short name, e.g. "LJ"
  const char* full_name;   // e.g. "liveJournal"
  uint64_t num_vertices;   // paper's |V|
  uint64_t num_edges;      // paper's |E|
  bool undirected;
  double rmat_a;           // degree-skew knob for the stand-in
};

const DatasetInfo& GetDatasetInfo(Dataset dataset);

// Builds a stand-in for `dataset` with |V| and |E| divided by
// 2^scale_shift. scale_shift 0 reproduces the paper's sizes (slow on one
// core); benchmarks default to 6-8.
CsrGraph MakeDatasetStandIn(Dataset dataset, uint32_t scale_shift,
                            uint64_t seed);

}  // namespace lightrw::graph

#endif  // LIGHTRW_GRAPH_GENERATORS_H_
