#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/transforms.h"

namespace lightrw::graph {
namespace {

CsrGraph MakeChain() {
  // 0 -> 1 -> 2 -> 3 with distinct weights/relations and labels.
  GraphBuilder builder(4, false);
  builder.AddEdge(0, 1, 10, 1);
  builder.AddEdge(1, 2, 20, 2);
  builder.AddEdge(2, 3, 30, 3);
  builder.SetVertexLabel(0, 1);
  builder.SetVertexLabel(1, 1);
  builder.SetVertexLabel(2, 2);
  builder.SetVertexLabel(3, 2);
  return std::move(builder).Build();
}

TEST(SortByDegreeTest, DescendingDegreeIds) {
  RmatOptions options;
  options.scale = 10;
  options.seed = 9;
  const CsrGraph g = GenerateRmat(options);
  const RelabeledGraph sorted = SortByDegree(g);
  ASSERT_EQ(sorted.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(sorted.graph.num_edges(), g.num_edges());
  for (VertexId v = 1; v < sorted.graph.num_vertices(); ++v) {
    EXPECT_GE(sorted.graph.Degree(v - 1), sorted.graph.Degree(v));
  }
}

TEST(SortByDegreeTest, MappingsAreInverse) {
  const CsrGraph g = MakeChain();
  const RelabeledGraph sorted = SortByDegree(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sorted.old_id[sorted.new_id[v]], v);
  }
}

TEST(SortByDegreeTest, EdgesTranslated) {
  const CsrGraph g = MakeChain();
  const RelabeledGraph sorted = SortByDegree(g);
  // Every original edge must exist under the new ids with its weight.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto neighbors = g.Neighbors(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_TRUE(sorted.graph.HasEdge(sorted.new_id[v],
                                       sorted.new_id[neighbors[i]]));
    }
    EXPECT_EQ(sorted.graph.VertexLabel(sorted.new_id[v]),
              g.VertexLabel(v));
  }
}

}  // namespace
}  // namespace lightrw::graph
