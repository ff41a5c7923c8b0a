// Equivalence contract of the accelerator step model: a 1-board,
// fault-free DistributedEngine and a 1-instance CycleEngine drive the
// same per-step datapath, so with the same AcceleratorConfig and the
// same number of walks in flight they must agree on cycles, DRAM
// counters and paths. The engines draw from different RNG streams
// (per-instance against per-ticket), so the graphs here force every
// path: each vertex has exactly one edge with nonzero sampling weight.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "apps/walk_app.h"
#include "distributed/dist_engine.h"
#include "graph/builder.h"
#include "lightrw/cycle_engine.h"

namespace lightrw {
namespace {

using core::AcceleratorConfig;
using distributed::BoardId;

constexpr graph::VertexId kVertices = 2048;
constexpr graph::Relation kLiveRelation = 1;
constexpr uint32_t kLength = 16;

enum class Forced {
  kRelation,  // every edge weighs 1; one carries kLiveRelation (MetaPath)
  kWeight,    // one edge weighs 1, the rest 0 (DeepWalk, Node2Vec)
};

// Out-degrees cycle through 2000, 1000, ..., 1 so burst lengths, cache
// replacement and Node2Vec prev refetches all vary along a walk. The
// live edge of v is a pseudo-random one of its neighbors.
graph::CsrGraph ForcedPathGraph(Forced forced) {
  graph::GraphBuilder builder(kVertices, /*undirected=*/false);
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    const uint32_t degree = std::max(1u, 2000u >> (v % 16));
    const uint32_t live = (v * 2654435761u) % degree;
    for (uint32_t j = 0; j < degree; ++j) {
      const graph::VertexId dst = (v + 1 + j * 7) % kVertices;
      if (forced == Forced::kRelation) {
        builder.AddEdge(v, dst, 1, j == live ? kLiveRelation : 0);
      } else {
        builder.AddEdge(v, dst, j == live ? 1 : 0);
      }
    }
  }
  return std::move(builder).Build();
}

std::vector<apps::WalkQuery> Queries() {
  std::vector<apps::WalkQuery> queries;
  for (graph::VertexId v = 0; v < kVertices; v += 5) {
    queries.push_back({v, kLength});
  }
  return queries;
}

AcceleratorConfig BaseConfig() {
  AcceleratorConfig config;
  config.num_instances = 1;
  config.cache_entries = 256;
  config.seed = 17;
  return config;
}

// Runs both engines and requires identical simulated outputs. `boards`
// replicated boards stand in for as many CycleEngine instances.
void ExpectEquivalent(const graph::CsrGraph& g, const apps::WalkApp& app,
                      const AcceleratorConfig& accel, BoardId boards = 1) {
  const std::vector<apps::WalkQuery> queries = Queries();

  AcceleratorConfig instances = accel;
  instances.num_instances = boards;
  baseline::WalkOutput cycle_out;
  const core::AccelRunStats cycle =
      core::CycleEngine(&g, &app, instances).Run(queries, &cycle_out);

  distributed::DistributedConfig dist;
  dist.board = accel;
  dist.inflight_walkers_per_board = accel.inflight_queries;
  dist.replicate_graph = boards > 1;
  const distributed::Partition partition(
      std::vector<BoardId>(g.num_vertices(), 0), 1);
  const distributed::Partition replicated = distributed::MakePartition(
      g, boards, distributed::PartitionStrategy::kHash);
  distributed::DistributedEngine engine(
      &g, &app, boards > 1 ? &replicated : &partition, dist);
  baseline::WalkOutput dist_out;
  const auto result = engine.Run(queries, &dist_out);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const distributed::DistributedRunStats& cluster = *result;

  EXPECT_GT(cycle.steps, queries.size());
  EXPECT_EQ(cycle.cycles, cluster.cycles);
  EXPECT_EQ(cycle.queries, cluster.queries);
  EXPECT_EQ(cycle.steps, cluster.steps);
  EXPECT_EQ(cycle.dram.requests, cluster.dram.requests);
  EXPECT_EQ(cycle.dram.beats, cluster.dram.beats);
  EXPECT_EQ(cycle.dram.bytes, cluster.dram.bytes);
  EXPECT_EQ(cycle.dram.busy_cycles, cluster.dram.busy_cycles);
  EXPECT_EQ(cycle.dram.useful_bytes, cluster.dram.useful_bytes);
  EXPECT_EQ(cycle_out.offsets, dist_out.offsets);
  EXPECT_EQ(cycle_out.vertices, dist_out.vertices);
}

TEST(StepModelEquivalenceTest, MetaPathDegreeAwareCache) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kRelation);
  const apps::MetaPathApp app(
      std::vector<graph::Relation>(kLength, kLiveRelation));
  AcceleratorConfig config = BaseConfig();
  config.cache_kind = core::CacheKind::kDegreeAware;
  ExpectEquivalent(g, app, config);
}

TEST(StepModelEquivalenceTest, Node2VecPrevRefetches) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kWeight);
  const apps::Node2VecApp app(2.0, 0.5);
  AcceleratorConfig config = BaseConfig();
  config.prev_neighbor_buffer_edges = 64;
  ExpectEquivalent(g, app, config);
  // The contract is only interesting if refetches happen.
  const auto stats = core::CycleEngine(&g, &app, config).Run(Queries());
  EXPECT_GT(stats.prev_refetches, 0u);
}

TEST(StepModelEquivalenceTest, DeepWalkNoCacheShortBursts) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kWeight);
  const apps::StaticWalkApp app;
  AcceleratorConfig config = BaseConfig();
  config.cache_kind = core::CacheKind::kNone;
  config.burst = core::BurstStrategy{1, 0};
  ExpectEquivalent(g, app, config);
}

TEST(StepModelEquivalenceTest, DeepWalkLruFourLanes) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kWeight);
  const apps::StaticWalkApp app;
  AcceleratorConfig config = BaseConfig();
  config.cache_kind = core::CacheKind::kLru;
  config.sampler_parallelism = 4;
  config.inflight_queries = 16;
  ExpectEquivalent(g, app, config);
}

TEST(StepModelEquivalenceTest, MetaPathFourInstancesAgainstReplicatedBoards) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kRelation);
  const apps::MetaPathApp app(
      std::vector<graph::Relation>(kLength, kLiveRelation));
  ExpectEquivalent(g, app, BaseConfig(), /*boards=*/4);
}

TEST(StepModelEquivalenceTest, Node2VecStaged) {
  const graph::CsrGraph g = ForcedPathGraph(Forced::kWeight);
  const apps::Node2VecApp app(2.0, 0.5);
  AcceleratorConfig config = BaseConfig();
  config.enable_wrs_pipeline = false;
  config.prev_neighbor_buffer_edges = 64;
  ExpectEquivalent(g, app, config);
}

}  // namespace
}  // namespace lightrw
