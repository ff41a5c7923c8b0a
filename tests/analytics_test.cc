#include <gtest/gtest.h>

#include "analytics/embedding.h"
#include "analytics/link_prediction.h"
#include "apps/walk_app.h"
#include "graph/builder.h"
#include "lightrw/functional_engine.h"
#include "rng/rng.h"

namespace lightrw::analytics {
namespace {

using graph::CsrGraph;
using graph::VertexId;

// Two 8-cliques joined by a single bridge edge: walks stay inside their
// clique, so embeddings should separate the communities.
CsrGraph MakeTwoCliques() {
  constexpr VertexId kSize = 8;
  graph::GraphBuilder builder(2 * kSize, /*undirected=*/true);
  for (VertexId c = 0; c < 2; ++c) {
    const VertexId base = c * kSize;
    for (VertexId i = 0; i < kSize; ++i) {
      for (VertexId j = i + 1; j < kSize; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  }
  builder.AddEdge(0, kSize);  // bridge
  return std::move(builder).Build();
}

WalkOutput MakeCorpus(const CsrGraph& g) {
  apps::StaticWalkApp app;
  core::AcceleratorConfig config;
  config.seed = 3;
  core::FunctionalEngine engine(&g, &app, config);
  std::vector<apps::WalkQuery> queries;
  for (int round = 0; round < 30; ++round) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      queries.push_back({v, 20});
    }
  }
  WalkOutput corpus;
  engine.Run(queries, &corpus);
  return corpus;
}

TEST(EmbeddingTest, ShapeAndAccess) {
  Embedding e(10, 16);
  EXPECT_EQ(e.num_vertices(), 10u);
  EXPECT_EQ(e.dimensions(), 16u);
  EXPECT_EQ(e.Vector(3).size(), 16u);
  auto v = e.MutableVector(3);
  v[0] = 1.0f;
  EXPECT_EQ(e.Vector(3)[0], 1.0f);
}

TEST(EmbeddingTest, CosineSimilarityBasics) {
  Embedding e(3, 2);
  auto a = e.MutableVector(0);
  a[0] = 1.0f;
  a[1] = 0.0f;
  auto b = e.MutableVector(1);
  b[0] = 0.0f;
  b[1] = 2.0f;
  auto c = e.MutableVector(2);
  c[0] = 3.0f;
  c[1] = 0.0f;
  EXPECT_NEAR(e.CosineSimilarity(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(e.CosineSimilarity(0, 2), 1.0, 1e-9);
}

TEST(EmbeddingTest, ZeroVectorSimilarityIsZero) {
  Embedding e(2, 4);
  EXPECT_EQ(e.CosineSimilarity(0, 1), 0.0);
}

TEST(EmbeddingTest, TrainingSeparatesCommunities) {
  const CsrGraph g = MakeTwoCliques();
  const WalkOutput corpus = MakeCorpus(g);
  EmbeddingConfig config;
  config.epochs = 3;
  const Embedding embedding = TrainEmbedding(corpus, g.num_vertices(), config);

  // Average intra-clique similarity must exceed inter-clique similarity.
  double intra = 0.0, inter = 0.0;
  int intra_n = 0, inter_n = 0;
  for (VertexId u = 1; u < 8; ++u) {
    intra += embedding.CosineSimilarity(1, u == 1 ? 2 : u);
    ++intra_n;
    inter += embedding.CosineSimilarity(1, 8 + u);
    ++inter_n;
  }
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.1);
}

TEST(EmbeddingTest, DeterministicPerSeed) {
  const CsrGraph g = MakeTwoCliques();
  const WalkOutput corpus = MakeCorpus(g);
  EmbeddingConfig config;
  config.epochs = 1;
  const Embedding a = TrainEmbedding(corpus, g.num_vertices(), config);
  const Embedding b = TrainEmbedding(corpus, g.num_vertices(), config);
  for (uint32_t d = 0; d < a.dimensions(); ++d) {
    EXPECT_EQ(a.Vector(0)[d], b.Vector(0)[d]);
  }
}

TEST(LinkPredictionTest, AucAboveChanceOnStructuredGraph) {
  const CsrGraph g = MakeTwoCliques();
  const WalkOutput corpus = MakeCorpus(g);
  EmbeddingConfig config;
  config.epochs = 3;
  const Embedding embedding = TrainEmbedding(corpus, g.num_vertices(), config);
  const auto result = EvaluateLinkPrediction(g, embedding, 200, 9);
  EXPECT_GT(result.auc, 0.6);
  EXPECT_LE(result.auc, 1.0);
  EXPECT_EQ(result.positive_pairs, 200u);
  EXPECT_EQ(result.negative_pairs, 200u);
}

TEST(LinkPredictionTest, RandomEmbeddingNearChance) {
  const CsrGraph g = MakeTwoCliques();
  Embedding random(g.num_vertices(), 8);
  rng::Xoshiro256StarStar gen(4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (auto& x : random.MutableVector(v)) {
      x = static_cast<float>(gen.NextUnit()) - 0.5f;
    }
  }
  const auto result = EvaluateLinkPrediction(g, random, 300, 9);
  EXPECT_GT(result.auc, 0.25);
  EXPECT_LT(result.auc, 0.75);
}

TEST(LinkPredictionTest, TopLinksExcludeExistingEdges) {
  const CsrGraph g = MakeTwoCliques();
  const WalkOutput corpus = MakeCorpus(g);
  const Embedding embedding =
      TrainEmbedding(corpus, g.num_vertices(), EmbeddingConfig{});
  std::vector<std::pair<VertexId, VertexId>> candidates;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (u != v) {
        candidates.emplace_back(u, v);
      }
    }
  }
  const auto top = PredictTopLinks(
      g, embedding, {candidates.data(), candidates.size()}, 10);
  EXPECT_EQ(top.size(), 10u);
  for (const auto& [u, v] : top) {
    EXPECT_FALSE(g.HasEdge(u, v));
  }
}

}  // namespace
}  // namespace lightrw::analytics
