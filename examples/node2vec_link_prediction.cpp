// End-to-end link prediction (the paper's §6.7 case study): Node2Vec
// walks -> skip-gram embeddings -> cosine-similarity link scores, on a
// scaled liveJournal stand-in.
//
//   ./examples/node2vec_link_prediction

#include <cstdio>

#include "analytics/embedding.h"
#include "analytics/link_prediction.h"
#include "apps/walk_app.h"
#include "common/timer.h"
#include "rng/rng.h"
#include "graph/generators.h"
#include "lightrw/functional_engine.h"

int main() {
  using namespace lightrw;

  const graph::CsrGraph graph = graph::MakeDatasetStandIn(
      graph::Dataset::kLiveJournal, /*scale_shift=*/10, /*seed=*/42);
  std::printf("liveJournal stand-in: %s\n", graph.Summary().c_str());

  // Walk corpus: one 40-step Node2Vec walk per vertex.
  apps::Node2VecApp app(/*p=*/2.0, /*q=*/0.5);
  core::AcceleratorConfig config;
  config.seed = 42;
  core::FunctionalEngine engine(&graph, &app, config);
  const auto queries = apps::MakeVertexQueries(graph, /*length=*/40,
                                               /*seed=*/42);

  WallTimer walk_timer;
  baseline::WalkOutput corpus;
  const auto run_stats = engine.Run(queries, &corpus);
  std::printf("walks: %llu steps in %.2fs\n",
              static_cast<unsigned long long>(run_stats.steps),
              walk_timer.ElapsedSeconds());

  WallTimer train_timer;
  analytics::EmbeddingConfig embed_config;
  embed_config.dimensions = 32;
  embed_config.epochs = 1;
  const analytics::Embedding embedding =
      analytics::TrainEmbedding(corpus, graph.num_vertices(), embed_config);
  std::printf("embedding: %u dims trained in %.2fs\n",
              embedding.dimensions(), train_timer.ElapsedSeconds());

  const auto result =
      analytics::EvaluateLinkPrediction(graph, embedding, 1000, 42);
  std::printf("link prediction AUC over %zu+/%zu- pairs: %.3f\n",
              result.positive_pairs, result.negative_pairs, result.auc);

  // Show a few concrete predictions among random candidate pairs.
  rng::Xoshiro256StarStar gen(7);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> candidates;
  for (int i = 0; i < 5000; ++i) {
    candidates.emplace_back(
        static_cast<graph::VertexId>(gen.NextBounded(graph.num_vertices())),
        static_cast<graph::VertexId>(gen.NextBounded(graph.num_vertices())));
  }
  const auto top = analytics::PredictTopLinks(
      graph, embedding, {candidates.data(), candidates.size()}, 5);
  std::printf("top predicted new links:\n");
  for (const auto& [u, v] : top) {
    std::printf("  %u -- %u (similarity %.3f)\n", u, v,
                embedding.CosineSimilarity(u, v));
  }
  return 0;
}
