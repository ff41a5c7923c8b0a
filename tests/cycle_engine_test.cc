#include <gtest/gtest.h>

#include "apps/walk_app.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/functional_engine.h"

namespace lightrw::core {
namespace {

using apps::MetaPathApp;
using apps::Node2VecApp;
using apps::StaticWalkApp;
using apps::WalkQuery;
using graph::CsrGraph;

AcceleratorConfig TestConfig() {
  AcceleratorConfig config;
  config.num_instances = 1;
  config.seed = 11;
  return config;
}

CsrGraph TestGraph(uint32_t scale_shift = 10) {
  return graph::MakeDatasetStandIn(graph::Dataset::kYoutube, scale_shift, 5);
}

TEST(CycleEngineTest, RunsAllQueriesAndCountsCycles) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  CycleEngine engine(&g, &app, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 400);
  const auto stats = engine.Run(queries);
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.dram.bytes, 0u);
  EXPECT_GE(stats.dram.bytes, stats.dram.useful_bytes);
  EXPECT_GT(stats.StepsPerSecond(), 0.0);
}

TEST(CycleEngineTest, WalksAreValid) {
  const CsrGraph g = TestGraph(11);
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 6, 3, 150);
  for (const uint32_t instances : {1u, 4u}) {
    AcceleratorConfig config = TestConfig();
    config.num_instances = instances;
    CycleEngine engine(&g, &app, config);
    baseline::WalkOutput output;
    engine.Run(queries, &output);
    ASSERT_EQ(output.num_paths(), queries.size());
    for (size_t i = 0; i < output.num_paths(); ++i) {
      const auto path = output.Path(i);
      // Paths come back in input order, whatever instance ran them.
      EXPECT_EQ(path[0], queries[i].start) << instances;
      for (size_t s = 1; s < path.size(); ++s) {
        EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
      }
    }
  }
}

TEST(CycleEngineTest, Deterministic) {
  const CsrGraph g = TestGraph(11);
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 6, 3, 200);
  CycleEngine a(&g, &app, TestConfig());
  CycleEngine b(&g, &app, TestConfig());
  const auto sa = a.Run(queries);
  const auto sb = b.Run(queries);
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_EQ(sa.dram.bytes, sb.dram.bytes);
}

TEST(CycleEngineTest, DisablingWrsPipelineSlowsDown) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  AcceleratorConfig on = TestConfig();
  AcceleratorConfig off = TestConfig();
  off.enable_wrs_pipeline = false;
  const auto stats_on = CycleEngine(&g, &app, on).Run(queries);
  const auto stats_off = CycleEngine(&g, &app, off).Run(queries);
  EXPECT_GT(stats_off.cycles, stats_on.cycles);
  // The staged flow writes weights and tables through DRAM.
  EXPECT_GT(stats_off.dram.bytes, stats_on.dram.bytes);
}

TEST(CycleEngineTest, DegreeAwareCacheReducesDramRequests) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  AcceleratorConfig with_cache = TestConfig();
  AcceleratorConfig no_cache = TestConfig();
  no_cache.cache_kind = CacheKind::kNone;
  const auto stats_cache = CycleEngine(&g, &app, with_cache).Run(queries);
  const auto stats_none = CycleEngine(&g, &app, no_cache).Run(queries);
  EXPECT_LT(stats_cache.dram.requests, stats_none.dram.requests);
  EXPECT_GT(stats_cache.cache.hits, 0u);
  EXPECT_EQ(stats_none.cache.accesses(), 0u);
}

TEST(CycleEngineTest, BurstStrategyChangesTiming) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  AcceleratorConfig dynamic = TestConfig();
  dynamic.burst = BurstStrategy{1, 32};
  AcceleratorConfig short_only = TestConfig();
  short_only.burst = BurstStrategy{1, 0};
  const auto stats_dyn = CycleEngine(&g, &app, dynamic).Run(queries);
  const auto stats_short = CycleEngine(&g, &app, short_only).Run(queries);
  // Orkut's average degree (~38) makes long bursts pay off.
  EXPECT_LT(stats_dyn.cycles, stats_short.cycles);
  EXPECT_GT(stats_dyn.burst.long_bursts, 0u);
  EXPECT_EQ(stats_short.burst.long_bursts, 0u);
}

TEST(CycleEngineTest, MoreInstancesReduceMakespan) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 512);
  AcceleratorConfig one = TestConfig();
  AcceleratorConfig four = TestConfig();
  four.num_instances = 4;
  const auto stats_one = CycleEngine(&g, &app, one).Run(queries);
  const auto stats_four = CycleEngine(&g, &app, four).Run(queries);
  EXPECT_LT(stats_four.cycles, stats_one.cycles);
  EXPECT_GT(stats_four.cycles, stats_one.cycles / 8);  // sane scaling
}

TEST(CycleEngineTest, Node2VecPrevRefetchTriggersWithTinyBuffer) {
  const CsrGraph g = graph::MakeDatasetStandIn(graph::Dataset::kOrkut,
                                               /*scale_shift=*/10, 5);
  Node2VecApp app(2.0, 0.5);
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 200);
  AcceleratorConfig big_buffer = TestConfig();
  big_buffer.prev_neighbor_buffer_edges = 1u << 20;
  AcceleratorConfig tiny_buffer = TestConfig();
  tiny_buffer.prev_neighbor_buffer_edges = 4;
  const auto stats_big = CycleEngine(&g, &app, big_buffer).Run(queries);
  const auto stats_tiny = CycleEngine(&g, &app, tiny_buffer).Run(queries);
  EXPECT_EQ(stats_big.prev_refetches, 0u);
  EXPECT_GT(stats_tiny.prev_refetches, 0u);
  EXPECT_GT(stats_tiny.dram.bytes, stats_big.dram.bytes);
}

TEST(CycleEngineTest, LatencyCollection) {
  const CsrGraph g = TestGraph(11);
  StaticWalkApp app;
  AcceleratorConfig config = TestConfig();
  config.collect_latency = true;
  CycleEngine engine(&g, &app, config);
  const auto queries = apps::MakeVertexQueries(g, 5, 3, 100);
  const auto stats = engine.Run(queries);
  EXPECT_EQ(stats.query_latency_cycles.count(), queries.size());
  EXPECT_GT(stats.query_latency_cycles.Min(), 0.0);
}

TEST(CycleEngineTest, ZeroLengthQueriesRetireImmediately) {
  const CsrGraph g = TestGraph(12);
  StaticWalkApp app;
  CycleEngine engine(&g, &app, TestConfig());
  const std::vector<WalkQuery> queries(10, WalkQuery{0, 0});
  const auto stats = engine.Run(queries);
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(CycleEngineTest, ValidDataRatioWithinBounds) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  CycleEngine engine(&g, &app, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 200);
  const auto stats = engine.Run(queries);
  EXPECT_GT(stats.burst.ValidDataRatio(), 0.0);
  EXPECT_LE(stats.burst.ValidDataRatio(), 1.0);
}

// The number of walk steps must match the functional engine's when fed the
// same queries and seeds (both engines share the sampling semantics; the
// per-step RNG consumption order differs, so paths differ, but the
// workload counts stay in the same ballpark).
TEST(CycleEngineTest, StepCountsComparableToFunctional) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 400);
  CycleEngine cycle(&g, &app, TestConfig());
  const auto cycle_stats = cycle.Run(queries);
  FunctionalEngine functional(&g, &app, TestConfig());
  const auto functional_stats = functional.Run(queries);
  EXPECT_EQ(cycle_stats.queries, functional_stats.queries);
  const double ratio = static_cast<double>(cycle_stats.steps) /
                       static_cast<double>(functional_stats.steps);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

}  // namespace
}  // namespace lightrw::core
