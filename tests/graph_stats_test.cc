#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace lightrw::graph {
namespace {

CsrGraph MakeStar(VertexId leaves) {
  GraphBuilder builder(leaves + 1, /*undirected=*/false);
  for (VertexId i = 1; i <= leaves; ++i) {
    builder.AddEdge(0, i);
    builder.AddEdge(i, 0);
  }
  return std::move(builder).Build();
}

TEST(DegreeStatsTest, StarGraph) {
  const CsrGraph g = MakeStar(99);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max_degree, 99u);
  EXPECT_DOUBLE_EQ(stats.average_degree, 198.0 / 100.0);
  EXPECT_DOUBLE_EQ(stats.median_degree, 1.0);
  // The hub (top 1% of 100 vertices) owns half of all edges.
  EXPECT_NEAR(stats.top1pct_edge_share, 0.5, 1e-9);
  EXPECT_GT(stats.degree_gini, 0.4);
}

TEST(DegreeStatsTest, RegularGraphHasZeroGini) {
  // Directed ring: every vertex has degree exactly 1.
  GraphBuilder builder(64, false);
  for (VertexId v = 0; v < 64; ++v) {
    builder.AddEdge(v, (v + 1) % 64);
  }
  const CsrGraph g = std::move(builder).Build();
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_NEAR(stats.degree_gini, 0.0, 1e-9);
  EXPECT_EQ(stats.max_degree, 1u);
}

TEST(DegreeStatsTest, GiniBounded) {
  RmatOptions options;
  options.scale = 11;
  options.seed = 8;
  const CsrGraph g = GenerateRmat(options);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GE(stats.degree_gini, 0.0);
  EXPECT_LE(stats.degree_gini, 1.0);
  EXPECT_GE(stats.top10pct_edge_share, stats.top1pct_edge_share);
  EXPECT_LE(stats.top10pct_edge_share, 1.0 + 1e-9);
}

TEST(VertexOrderTest, SortedByDegreeDescending) {
  const CsrGraph g = MakeStar(10);
  const auto order = VerticesByDegreeDescending(g);
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order[0], 0u);  // the hub
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(g.Degree(order[i - 1]), g.Degree(order[i]));
  }
}

}  // namespace
}  // namespace lightrw::graph
