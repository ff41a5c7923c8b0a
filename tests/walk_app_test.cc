#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace lightrw::apps {
namespace {

using graph::GraphBuilder;

CsrGraph MakeLabeledTriangle() {
  // 0 -> 1 (rel 1), 1 -> 2 (rel 2), 2 -> 0 (rel 1), plus 0 -> 2 (rel 2).
  GraphBuilder builder(3, false);
  builder.AddEdge(0, 1, /*weight=*/5, /*relation=*/1);
  builder.AddEdge(1, 2, /*weight=*/7, /*relation=*/2);
  builder.AddEdge(2, 0, /*weight=*/2, /*relation=*/1);
  builder.AddEdge(0, 2, /*weight=*/3, /*relation=*/2);
  return std::move(builder).Build();
}

TEST(MetaPathAppTest, MatchingRelationKeepsWeight) {
  const CsrGraph g = MakeLabeledTriangle();
  MetaPathApp app({1, 2});
  WalkState state;
  state.step = 0;
  state.curr = 0;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 5u);  // rel 1 at step 0
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 3, 2), 0u);  // rel 2 mismatched
  state.step = 1;
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 7, 2), 7u);
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 0u);
}

TEST(MetaPathAppTest, BeyondPathNothingSampleable) {
  const CsrGraph g = MakeLabeledTriangle();
  MetaPathApp app({1});
  WalkState state;
  state.step = 1;  // path length is 1
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1), 0u);
}

TEST(MetaPathAppTest, DoesNotNeedPrevNeighbors) {
  MetaPathApp app({1});
  EXPECT_FALSE(app.needs_prev_neighbors());
  EXPECT_EQ(app.name(), "MetaPath");
}

TEST(Node2VecAppTest, FirstStepIsStatic) {
  const CsrGraph g = MakeLabeledTriangle();
  Node2VecApp app(/*p=*/2.0, /*q=*/0.5);
  WalkState state;
  state.curr = 0;
  state.prev = graph::kInvalidVertex;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 5, 1),
            5u * Node2VecApp::kWeightScale);
}

TEST(Node2VecAppTest, SecondOrderCases) {
  // Graph: 1 -> {0, 2, 3}; 0 -> 2 exists; 0 -> 3 does not.
  GraphBuilder builder(4, false);
  builder.AddEdge(1, 0, 1, 0);
  builder.AddEdge(1, 2, 1, 0);
  builder.AddEdge(1, 3, 1, 0);
  builder.AddEdge(0, 2, 1, 0);
  builder.AddEdge(0, 1, 1, 0);
  const CsrGraph g = std::move(builder).Build();

  Node2VecApp app(/*p=*/2.0, /*q=*/0.5);
  WalkState state;
  state.curr = 1;
  state.prev = 0;
  const Weight scale = Node2VecApp::kWeightScale;
  // Return edge (dst == prev): w/p.
  EXPECT_EQ(app.DynamicWeight(g, state, 0, 4, 0), 4u * scale / 2);
  // dst adjacent to prev: w.
  EXPECT_EQ(app.DynamicWeight(g, state, 2, 4, 0), 4u * scale);
  // dst not adjacent to prev: w/q = 2w.
  EXPECT_EQ(app.DynamicWeight(g, state, 3, 4, 0), 4u * scale * 2);
}

TEST(Node2VecAppTest, NeedsPrevNeighbors) {
  Node2VecApp app(2.0, 0.5);
  EXPECT_TRUE(app.needs_prev_neighbors());
  EXPECT_DOUBLE_EQ(app.p(), 2.0);
  EXPECT_DOUBLE_EQ(app.q(), 0.5);
}

TEST(Node2VecAppTest, FractionalScalesRound) {
  Node2VecApp app(/*p=*/3.0, /*q=*/7.0);
  const CsrGraph g = MakeLabeledTriangle();
  WalkState state;
  state.curr = 0;
  state.prev = 1;
  // 1/p = 85.33/256, rounds to 85.
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 1, 0), 85u);
}

TEST(Node2VecAppTest, ValidateRejectsUnusableParams) {
  const CsrGraph g = MakeLabeledTriangle();
  EXPECT_TRUE(Node2VecApp::Validate(2.0, 0.5, g).ok());
  EXPECT_TRUE(Node2VecApp::Validate(512.0, 512.0, g).ok());  // scale 1
  for (const auto& [p, q] : {std::pair{1000.0, 1.0}, std::pair{1.0, 0.0},
                             std::pair{-1.0, 1.0}, std::pair{1.0, 1e-12}}) {
    const Status status = Node2VecApp::Validate(p, q, g);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << p << " " << q;
  }
}

TEST(Node2VecAppTest, ValidateRejectsWrappingWeights) {
  // 2^23 * 512 (q = 0.5) is 2^32: Eq. 2c would wrap 0 -> 2 to weight 0.
  GraphBuilder builder(3, false);
  builder.AddEdge(1, 0, 1);
  builder.AddEdge(0, 1, 1);
  builder.AddEdge(0, 2, 1u << 23);
  builder.AddEdge(2, 0, 1);
  const CsrGraph g = std::move(builder).Build();
  const Status status = Node2VecApp::Validate(2.0, 0.5, g);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("overflow"), std::string::npos);
  // With q = 1 the largest scale is 256 and 2^23 * 256 fits.
  EXPECT_TRUE(Node2VecApp::Validate(2.0, 1.0, g).ok());
}

// Weights of every out-edge of state.curr, one DynamicWeight call per
// edge: the reference every DynamicWeights must reproduce.
std::vector<Weight> PerEdgeWeights(const WalkApp& app, const CsrGraph& g,
                                   const WalkState& state) {
  const auto dsts = g.Neighbors(state.curr);
  const auto weights = g.NeighborWeights(state.curr);
  const auto relations = g.NeighborRelations(state.curr);
  std::vector<Weight> out(dsts.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = app.DynamicWeight(g, state, dsts[i], weights[i], relations[i]);
  }
  return out;
}

// For every curr, every prev (none, then each vertex) and runs of 1, 3, 7,
// 16 (a common k), 256 (a sampler chunk), 257 and the whole degree, the
// runs of DynamicWeights must equal the per-edge weights; empty runs are
// no-ops. Runs of 3, 7 and 257 start off a 4-edge boundary.
void ExpectRunsMatchPerEdge(const WalkApp& app, const CsrGraph& g) {
  SCOPED_TRACE(app.name());
  const VertexId n = g.num_vertices();
  std::vector<Weight> got;
  for (VertexId curr = 0; curr < n; ++curr) {
    const uint32_t degree = g.Degree(curr);
    for (VertexId p = 0; p <= n; ++p) {
      WalkState state;
      state.curr = curr;
      state.prev = p == n ? graph::kInvalidVertex : p;
      state.step = (curr + p) % 3;  // within and past a 2-step path
      const std::vector<Weight> want = PerEdgeWeights(app, g, state);
      const uint32_t whole = std::max(degree, 1u);
      for (const uint32_t run : {1u, 3u, 7u, 16u, 256u, 257u, whole}) {
        got.assign(degree, 0);
        for (uint32_t first = 0; first < degree; first += run) {
          const uint32_t len = std::min(run, degree - first);
          app.DynamicWeights(g, state, first, {got.data() + first, len});
        }
        ASSERT_EQ(got, want) << "curr " << curr << " prev " << p
                             << " run " << run;
      }
      app.DynamicWeights(g, state, 0, {});
      app.DynamicWeights(g, state, degree, {});
    }
  }
}

// Runs ExpectRunsMatchPerEdge for every app on `g`.
void ExpectAllAppsMatchPerEdge(const CsrGraph& g) {
  std::vector<std::unique_ptr<WalkApp>> apps;
  for (const auto& [p, q] : {std::pair{2.0, 0.5}, std::pair{1.0, 1.0},
                             std::pair{0.25, 4.0}, std::pair{512.0, 0.01}}) {
    apps.push_back(std::make_unique<Node2VecApp>(p, q));
  }
  apps.push_back(std::make_unique<MetaPathApp>(MakeRandomRelationPath(g, 2,
                                                                      7)));
  apps.push_back(std::make_unique<PprApp>(0.15));
  apps.push_back(std::make_unique<StaticWalkApp>());
  for (const auto& app : apps) {
    ExpectRunsMatchPerEdge(*app, g);
  }
}

// The RMAT edges of `options`, plus a self-loop on every third vertex.
// GraphBuilder keeps one edge per (u, v), so a CSR row holds no
// multi-edges; the repeated AddEdge calls below check that too.
CsrGraph RmatWithSelfLoops(const graph::RmatOptions& options) {
  const CsrGraph rmat = graph::GenerateRmat(options);
  GraphBuilder builder(rmat.num_vertices(), /*undirected=*/false);
  for (VertexId u = 0; u < rmat.num_vertices(); ++u) {
    const auto dsts = rmat.Neighbors(u);
    const auto weights = rmat.NeighborWeights(u);
    const auto relations = rmat.NeighborRelations(u);
    for (size_t i = 0; i < dsts.size(); ++i) {
      builder.AddEdge(u, dsts[i], weights[i], relations[i]);
      builder.AddEdge(u, dsts[i], weights[i] + 1, relations[i]);
    }
    if (u % 3 == 0) {
      builder.AddEdge(u, u, 1 + u % 7, static_cast<Relation>(u % 4));
    }
  }
  CsrGraph g = std::move(builder).Build();
  EXPECT_EQ(g.num_edges(),
            rmat.num_edges() + (rmat.num_vertices() + 2) / 3);
  return g;
}

TEST(DynamicWeightsTest, UndirectedRmatWithHubsAndSelfLoops) {
  graph::RmatOptions options;
  options.scale = 8;
  options.edge_factor = 16;
  options.undirected = true;
  options.seed = 11;
  const CsrGraph g = RmatWithSelfLoops(options);
  // A hub's N(prev) is over 8x a 16-edge run, so Node2Vec gallops.
  ASSERT_GT(g.max_degree(), 8u * 16);
  ExpectAllAppsMatchPerEdge(g);
}

TEST(DynamicWeightsTest, DirectedRmatWithSelfLoops) {
  graph::RmatOptions options;
  options.scale = 8;
  options.seed = 12;
  ExpectAllAppsMatchPerEdge(RmatWithSelfLoops(options));
}

// Four hubs on 300 vertices, each pointing at every vertex of one residue
// pattern and at the next hub: rows of 258 to 300 edges whose ids
// interleave densely, so a Node2Vec run between two hubs crosses whole
// 4 x 8 blocks, meets equal block maxima and passes the return edge
// inside a block, in runs longer than a 256-edge chunk. Every other row
// holds two edges, which keeps the every-(curr, prev) sweep short.
TEST(DynamicWeightsTest, InterleavedHubsWithRowsPastAChunk) {
  constexpr VertexId kVertices = 300;
  constexpr VertexId kHubs[] = {5, 150, 233, 298};
  GraphBuilder builder(kVertices, /*undirected=*/false);
  for (VertexId v = 0; v < kVertices; ++v) {
    const bool adjacent[] = {true, v % 7 != 0, v % 9 != 0, v % 11 != 0};
    for (size_t h = 0; h < std::size(kHubs); ++h) {
      if (adjacent[h] || v == kHubs[(h + 1) % std::size(kHubs)]) {
        builder.AddEdge(kHubs[h], v, 1 + (v + h) % 5,
                        static_cast<Relation>(v % 3));
      }
    }
    builder.AddEdge(v, (v * 37 + 11) % kVertices, 1 + v % 4);
    builder.AddEdge(v, kHubs[v % std::size(kHubs)], 2);
  }
  const CsrGraph g = std::move(builder).Build();
  for (const VertexId hub : kHubs) {
    ASSERT_GT(g.Degree(hub), 256u) << hub;
  }
  ExpectAllAppsMatchPerEdge(g);
}

TEST(StaticWalkAppTest, PassesWeightThrough) {
  const CsrGraph g = MakeLabeledTriangle();
  StaticWalkApp app;
  WalkState state;
  EXPECT_EQ(app.DynamicWeight(g, state, 1, 9, 3), 9u);
  EXPECT_FALSE(app.needs_prev_neighbors());
}

TEST(RelationPathTest, OnlyUsesPresentRelations) {
  const CsrGraph g = MakeLabeledTriangle();  // relations 1 and 2 only
  const auto path = MakeRandomRelationPath(g, 64, 5);
  ASSERT_EQ(path.size(), 64u);
  for (const Relation r : path) {
    EXPECT_TRUE(r == 1 || r == 2);
  }
}

TEST(RelationPathTest, DeterministicPerSeed) {
  const CsrGraph g = MakeLabeledTriangle();
  EXPECT_EQ(MakeRandomRelationPath(g, 16, 9), MakeRandomRelationPath(g, 16, 9));
}

TEST(VertexQueriesTest, OnePerNonIsolatedVertex) {
  GraphBuilder builder(5, false);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 0);
  // Vertex 2 and 4 have out-degree zero.
  const CsrGraph g = std::move(builder).Build();
  const auto queries = MakeVertexQueries(g, /*length=*/5, /*seed=*/1);
  EXPECT_EQ(queries.size(), 3u);
  for (const auto& q : queries) {
    EXPECT_GT(g.Degree(q.start), 0u);
    EXPECT_EQ(q.length, 5u);
  }
}

TEST(VertexQueriesTest, ShuffledAndTruncated) {
  GraphBuilder builder(100, false);
  for (graph::VertexId v = 0; v < 100; ++v) {
    builder.AddEdge(v, (v + 1) % 100);
  }
  const CsrGraph g = std::move(builder).Build();
  const auto all = MakeVertexQueries(g, 3, 42);
  EXPECT_EQ(all.size(), 100u);
  bool shuffled = false;
  for (size_t i = 0; i < all.size(); ++i) {
    shuffled |= all[i].start != i;
  }
  EXPECT_TRUE(shuffled);
  const auto capped = MakeVertexQueries(g, 3, 42, /*max_queries=*/10);
  EXPECT_EQ(capped.size(), 10u);
}

}  // namespace
}  // namespace lightrw::apps
