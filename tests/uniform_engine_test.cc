#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "apps/walk_app.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/uniform_engine.h"

namespace lightrw::core {
namespace {

using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

AcceleratorConfig TestConfig() {
  AcceleratorConfig config;
  config.num_instances = 1;
  config.seed = 3;
  return config;
}

TEST(UniformCycleEngineTest, ProducesValidWalks) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kYoutube,
                                               /*scale_shift=*/11, 5);
  UniformCycleEngine engine(&g, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 200);
  baseline::WalkOutput output;
  const auto stats = engine.Run(queries, &output);
  EXPECT_EQ(stats.queries, queries.size());
  ASSERT_EQ(output.num_paths(), queries.size());
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    EXPECT_EQ(path[0], queries[i].start);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(UniformCycleEngineTest, SamplesUniformly) {
  graph::GraphBuilder builder(4, false);
  builder.AddEdge(0, 1, /*weight=*/100);  // weights must be ignored
  builder.AddEdge(0, 2, 1);
  builder.AddEdge(0, 3, 1);
  const CsrGraph g = std::move(builder).Build();
  UniformCycleEngine engine(&g, TestConfig());
  constexpr int kTrials = 30000;
  const std::vector<WalkQuery> queries(kTrials, WalkQuery{0, 1});
  baseline::WalkOutput output;
  engine.Run(queries, &output);
  std::map<VertexId, int> counts;
  for (size_t i = 0; i < output.num_paths(); ++i) {
    ++counts[output.Path(i)[1]];
  }
  const double expected = kTrials / 3.0;
  for (VertexId v = 1; v <= 3; ++v) {
    EXPECT_NEAR(counts[v], expected, 5 * std::sqrt(expected)) << v;
  }
}

TEST(UniformCycleEngineTest, TouchesOneRecordPerStep) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  UniformCycleEngine engine(&g, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 300);
  const auto stats = engine.Run(queries);
  // Uniform sampling reads exactly one edge record per step.
  EXPECT_EQ(stats.edges_examined, stats.steps);
  // LightRW streams whole adjacency lists: far more bytes per step on a
  // dense graph.
  apps::StaticWalkApp app;
  CycleEngine lightrw(&g, &app, TestConfig());
  const auto lightrw_stats = lightrw.Run(queries);
  EXPECT_GT(
      lightrw_stats.dram.bytes / std::max<uint64_t>(1, lightrw_stats.steps),
      stats.dram.bytes / std::max<uint64_t>(1, stats.steps));
}

TEST(UniformCycleEngineTest, FasterThanGeneralEngineOnUniformWalks) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  UniformCycleEngine uniform(&g, TestConfig());
  apps::StaticWalkApp app;
  CycleEngine general(&g, &app, TestConfig());
  const auto uniform_stats = uniform.Run(queries);
  const auto general_stats = general.Run(queries);
  EXPECT_LT(uniform_stats.cycles, general_stats.cycles);
}

// Instances run on the shared SimThreadPool driver: the result must not
// depend on the host thread count.
TEST(UniformCycleEngineTest, Deterministic) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kYoutube,
                                               /*scale_shift=*/12, 5);
  const auto queries = apps::MakeVertexQueries(g, 5, 3, 100);
  AcceleratorConfig config = TestConfig();
  config.num_instances = 4;
  config.num_threads = 1;
  baseline::WalkOutput out_a;
  const auto a = UniformCycleEngine(&g, config).Run(queries, &out_a);
  config.num_threads = 4;
  baseline::WalkOutput out_b;
  const auto b = UniformCycleEngine(&g, config).Run(queries, &out_b);
  EXPECT_EQ(out_a.offsets, out_b.offsets);
  EXPECT_EQ(out_a.vertices, out_b.vertices);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.dram.requests, b.dram.requests);
  EXPECT_EQ(a.dram.bytes, b.dram.bytes);
  EXPECT_EQ(a.dram.busy_cycles, b.dram.busy_cycles);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.stage.info_cycles, b.stage.info_cycles);
  EXPECT_EQ(a.stage.fetch_cycles, b.stage.fetch_cycles);
  EXPECT_EQ(a.stage.pipeline_cycles, b.stage.pipeline_cycles);
}

}  // namespace
}  // namespace lightrw::core
