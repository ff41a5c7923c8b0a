// End-to-end integration: generators -> apps -> all three engines ->
// analytics, on shared workloads. Verifies cross-engine consistency that
// the per-module tests cannot see.

#include <gtest/gtest.h>

#include "analytics/embedding.h"
#include "analytics/link_prediction.h"
#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/functional_engine.h"
#include "lightrw/platform_models.h"

namespace lightrw {
namespace {

using apps::MetaPathApp;
using apps::Node2VecApp;
using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                       /*scale_shift=*/11, /*seed=*/77);
  }

  CsrGraph graph_;
};

TEST_F(IntegrationTest, AllEnginesCompleteMetaPathWorkload) {
  const auto relation_path = apps::MakeRandomRelationPath(graph_, 5, 1);
  MetaPathApp app(relation_path);
  const auto queries = apps::MakeVertexQueries(graph_, 5, 2, 300);

  baseline::BaselineEngine cpu(&graph_, &app, baseline::BaselineConfig{});
  const auto cpu_stats = cpu.Run(queries);

  core::AcceleratorConfig accel_config;
  accel_config.num_instances = 2;
  core::FunctionalEngine functional(&graph_, &app, accel_config);
  const auto func_stats = functional.Run(queries);

  core::CycleEngine cycle(&graph_, &app, accel_config);
  const auto cycle_stats = cycle.Run(queries);

  EXPECT_EQ(cpu_stats.queries, queries.size());
  EXPECT_EQ(func_stats.queries, queries.size());
  EXPECT_EQ(cycle_stats.queries, queries.size());

  // MetaPath kills many walks early (relation mismatches), but all three
  // engines sample from identical distributions, so their completed step
  // counts agree within a few percent.
  const double cpu_steps = static_cast<double>(cpu_stats.steps);
  EXPECT_NEAR(static_cast<double>(func_stats.steps), cpu_steps,
              0.15 * cpu_steps + 50);
  EXPECT_NEAR(static_cast<double>(cycle_stats.steps), cpu_steps,
              0.15 * cpu_steps + 50);
}

TEST_F(IntegrationTest, Node2VecStepParityAcrossEngines) {
  Node2VecApp app(2.0, 0.5);
  const auto queries = apps::MakeVertexQueries(graph_, 20, 3, 150);

  baseline::BaselineConfig cpu_config;
  cpu_config.sampler = sampling::SamplerKind::kInverseTransform;
  baseline::BaselineEngine cpu(&graph_, &app, cpu_config);
  const auto cpu_stats = cpu.Run(queries);

  core::AcceleratorConfig accel_config;
  core::CycleEngine accel(&graph_, &app, accel_config);
  const auto accel_stats = accel.Run(queries);

  // Node2Vec never zero-weights every neighbor, so both engines should
  // complete (almost) every requested step.
  EXPECT_EQ(cpu_stats.steps, accel_stats.steps);
  EXPECT_EQ(cpu_stats.steps, 20u * queries.size());
}

TEST_F(IntegrationTest, SimulatedAcceleratorOutpacesCpuBaseline) {
  // The headline claim in miniature: simulated LightRW kernel time beats
  // the measured CPU baseline on the same workload.
  Node2VecApp app(2.0, 0.5);
  const auto queries = apps::MakeVertexQueries(graph_, 20, 4, 400);

  baseline::BaselineEngine cpu(&graph_, &app, baseline::BaselineConfig{});
  const auto cpu_stats = cpu.Run(queries);

  core::AcceleratorConfig accel_config;  // 4 instances, k=16, b1+b32, DAC
  core::CycleEngine accel(&graph_, &app, accel_config);
  const auto accel_stats = accel.Run(queries);

  EXPECT_GT(accel_stats.StepsPerSecond(), cpu_stats.StepsPerSecond());
}

TEST_F(IntegrationTest, GraphRoundTripPreservesWalkSemantics) {
  const std::string path = testing::TempDir() + "/integration_graph.txt";
  ASSERT_TRUE(graph::WriteEdgeList(graph_, path).ok());
  auto reloaded = graph::ReadEdgeList(path, /*undirected=*/false);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_edges(), graph_.num_edges());

  apps::StaticWalkApp app;
  core::AcceleratorConfig config;
  const auto queries = apps::MakeVertexQueries(graph_, 10, 5, 100);
  baseline::WalkOutput original_walks, reloaded_walks;
  core::FunctionalEngine(&graph_, &app, config)
      .Run(queries, &original_walks);
  core::FunctionalEngine(&*reloaded, &app, config)
      .Run(queries, &reloaded_walks);
  EXPECT_EQ(original_walks.vertices, reloaded_walks.vertices);
}

TEST_F(IntegrationTest, WalksToEmbeddingsToLinkPrediction) {
  Node2VecApp app(2.0, 0.5);
  core::AcceleratorConfig config;
  core::FunctionalEngine engine(&graph_, &app, config);
  const auto queries = apps::MakeVertexQueries(graph_, 20, 6, 400);
  baseline::WalkOutput corpus;
  engine.Run(queries, &corpus);
  ASSERT_GT(corpus.vertices.size(), queries.size());

  analytics::EmbeddingConfig embed_config;
  embed_config.epochs = 1;
  embed_config.dimensions = 16;
  const auto embedding =
      analytics::TrainEmbedding(corpus, graph_.num_vertices(), embed_config);
  const auto result =
      analytics::EvaluateLinkPrediction(graph_, embedding, 200, 5);
  // Real-graph stand-in with one epoch: must beat chance clearly.
  EXPECT_GT(result.auc, 0.55);
}

TEST_F(IntegrationTest, PlatformModelsComposeWithEngines) {
  MetaPathApp app(apps::MakeRandomRelationPath(graph_, 5, 1));
  const auto queries = apps::MakeVertexQueries(graph_, 5, 2, 200);
  core::AcceleratorConfig config;
  core::CycleEngine accel(&graph_, &app, config);
  const auto stats = accel.Run(queries);

  core::PcieModel pcie;
  const uint64_t bytes =
      pcie.RunBytes(graph_, config.num_instances, queries.size(), 5);
  const double transfer = pcie.TransferSeconds(bytes);
  EXPECT_GT(transfer, 0.0);

  core::PowerModel power;
  const double watts = power.FpgaWatts(config.num_instances,
                                       graph_.num_edges(), false);
  const double energy = watts * (stats.seconds + transfer);
  EXPECT_GT(energy, 0.0);

  core::ResourceModel resources;
  const auto usage = resources.TotalUsage(config, app.needs_prev_neighbors());
  EXPECT_GT(usage.luts, 0u);
}

}  // namespace
}  // namespace lightrw
