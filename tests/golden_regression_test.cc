// Golden regression pins: exact expected outputs for fixed seeds. These
// lock down the RNG stream discipline and sampler semantics — an
// unintended change to ThunderingRng, WrsSelect, or the engines' RNG
// consumption order shows up here as a changed literal, forcing a
// deliberate review (and an update of EXPERIMENTS.md, since all measured
// numbers depend on these streams).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

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
#include "service/walk_service.h"

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

  // Re-running with the same seed must reproduce the identical corpus.
  // FunctionalEngineNode2VecPins pins the path pass's stream discipline.
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

// The other engines that sample Node2Vec steps through StepSampler: a
// partitioned cluster (per-ticket walks in the path pass, migrations
// between boards) and the untimed functional engine (the same pass).
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

// Replicated boards with a fault schedule take the coupled driver: walk
// i launches on board i % 4, and once board 1 dies the launches aimed at
// it go to a survivor. Checkpointed walkers on board 1 recover there.
TEST(GoldenTest, DistributedEngineReplicatedBoardDeathPins) {
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  config.replicate_graph = true;
  reliability::FaultConfig& faults = config.board.faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.checkpoint_interval_cycles = 1 << 12;
  faults.board_deaths = {{12000, /*board=*/1}};
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats =
      distributed::DistributedEngine(&PinGraph(), &app, &partition, config)
          .Run(PinQueries(), &output)
          .value();
  const reliability::ReliabilityStats& rel = stats.reliability;
  EXPECT_EQ(stats.cycles, 34788u);
  EXPECT_EQ(stats.steps, 3231u);
  EXPECT_EQ(rel.walkers_recovered, 63u);
  EXPECT_EQ(rel.board_failures, 1u);
  EXPECT_EQ(stats.membership.size(), 1u);
  // Recovery replays along the known path: the fault-free DeepWalk corpus.
  EXPECT_EQ(PathHash(output), 0x4ed9b7bd998de02bULL);
}

// DRAM ECC on every board: each request draws its fault in issue order,
// correctable errors re-issue the burst, and an uncorrectable one past
// the single retry fails the walk, which retires truncated.
TEST(GoldenTest, DistributedEngineDramEccPins) {
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  reliability::FaultConfig& faults = config.board.faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.dram_correctable_rate = 0.02;
  faults.dram_uncorrectable_rate = 0.02;
  faults.max_dram_retries = 1;
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats =
      distributed::DistributedEngine(&PinGraph(), &app, &partition, config)
          .Run(PinQueries(), &output)
          .value();
  const reliability::ReliabilityStats& rel = stats.reliability;
  EXPECT_EQ(stats.cycles, 81561u);
  EXPECT_EQ(stats.steps, 3178u);
  EXPECT_EQ(stats.dram.requests, 28244u);
  EXPECT_EQ(stats.dram.beats, 62561u);
  EXPECT_EQ(stats.dram.busy_cycles, 93019u);
  EXPECT_EQ(rel.dram_correctable, 578u);
  EXPECT_EQ(rel.dram_uncorrectable, 527u);
  EXPECT_EQ(rel.dram_retries, 1097u);
  EXPECT_EQ(rel.dram_failed_accesses, 8u);
  EXPECT_EQ(rel.walks_failed, 8u);
  EXPECT_EQ(PathHash(output), 0xbbf9319e9235a939ULL);
}

// The staged flow on ClusterSim boards: each step's weight buffer,
// sampling table and binary-search probes round-trip through DRAM.
TEST(GoldenTest, DistributedEngineStagedPartitionedPins) {
  const apps::StaticWalkApp app;
  const distributed::Partition partition = distributed::MakePartition(
      PinGraph(), 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board = PinConfig();
  config.board.enable_wrs_pipeline = false;
  baseline::WalkOutput output;
  const distributed::DistributedRunStats stats =
      distributed::DistributedEngine(&PinGraph(), &app, &partition, config)
          .Run(PinQueries(), &output)
          .value();
  EXPECT_EQ(stats.cycles, 92740u);
  EXPECT_EQ(stats.steps, 3200u);
  EXPECT_EQ(stats.migrations, 2106u);
  EXPECT_EQ(stats.dram.requests, 58026u);
  EXPECT_EQ(stats.dram.beats, 200214u);
  EXPECT_EQ(stats.dram.busy_cycles, 267354u);
  EXPECT_EQ(PathHash(output), 0x4ed9b7bd998de02bULL);
}

// The functional engine is the path pass alone: the partitioned
// cluster's Node2Vec corpus, untimed.
TEST(GoldenTest, FunctionalEngineNode2VecPins) {
  const apps::Node2VecApp app(2.0, 0.5);
  baseline::WalkOutput output;
  const core::FunctionalRunStats stats =
      core::FunctionalEngine(&PinGraph(), &app, PinConfig())
          .Run(PinQueries(), &output);
  EXPECT_EQ(stats.steps, 3200u);
  EXPECT_EQ(stats.edges_examined, 414151u);
  EXPECT_EQ(PathHash(output), 0xc44dc24cc5912eb8ULL);
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

// Two WalkService runs on a partitioned cluster, where queries wait in
// queues, are degraded, fail and retry. Every field below is a pure
// function of the graph and config.
struct ServicePins {
  uint64_t cycles;
  uint64_t steps;
  uint64_t completed;
  uint64_t failed;
  uint64_t shed_queue_full;
  uint64_t shed_breaker;
  uint64_t shed_deadline;
  uint64_t retries;
  uint64_t degraded_shortened;
  uint64_t degraded_uniform;
  uint64_t breaker_trips;
  // Reliability counters.
  uint64_t dram_uncorrectable;
  uint64_t dram_failed_accesses;
  uint64_t link_dropped;
  uint64_t retransmissions;
  uint64_t link_failed_sends;
  uint64_t board_failures;
  uint64_t checkpoints;
  uint64_t outcome_hash;  // FNV-1a over outcomes()
  uint64_t path_hash;
};

// Node2Vec at overload: arrivals outrun four walker slots per board, so
// congested queues shorten queries and degrade them to uniform steps,
// and full queues and passed deadlines shed others.
service::ServiceConfig ServiceOverloadConfig() {
  service::ServiceConfig config;
  config.cluster.board = PinConfig();
  config.cluster.inflight_walkers_per_board = 4;
  config.queue_capacity = 8;
  config.arrivals.seed = 3;
  config.arrivals.num_queries = 1024;
  config.arrivals.walk_length = 16;
  config.arrivals.rate_per_kcycle = 4.0;
  config.arrivals.deadline_cycles = 1 << 13;
  return config;
}

// MetaPath with a board death, 5% link drops past one retransmission
// and uncorrectable DRAM errors past one retry: walks fail, breakers
// trip, queries retry.
service::ServiceConfig ServiceFaultConfig() {
  service::ServiceConfig config;
  config.cluster.board = PinConfig();
  config.arrivals.seed = 5;
  config.arrivals.num_queries = 512;
  config.arrivals.walk_length = 8;
  config.arrivals.rate_per_kcycle = 1.0;
  reliability::FaultConfig& faults = config.cluster.board.faults;
  faults.enabled = true;
  faults.seed = 13;
  faults.link_drop_rate = 0.05;
  faults.max_retransmissions = 1;
  faults.dram_uncorrectable_rate = 0.02;
  faults.max_dram_retries = 1;
  faults.board_deaths = {{1 << 15, /*board=*/2}};
  return config;
}

const apps::Node2VecApp& PinNode2Vec() {
  static const apps::Node2VecApp* app = new apps::Node2VecApp(2.0, 0.5);
  return *app;
}

const apps::MetaPathApp& PinMetaPath() {
  static const apps::MetaPathApp* app = new apps::MetaPathApp(
      apps::MakeRandomRelationPath(PinGraph(), 8, /*seed=*/9));
  return *app;
}

const distributed::Partition& PinPartition() {
  static const distributed::Partition* p =
      new distributed::Partition(distributed::MakePartition(
          PinGraph(), 4, distributed::PartitionStrategy::kHash));
  return *p;
}

struct ServiceRun {
  service::ServiceRunStats stats;
  std::vector<service::QueryOutcome> outcomes;
  std::vector<service::Degradation> degradations;
  baseline::WalkOutput output;
};

ServiceRun RunService(const apps::WalkApp& app,
                      const service::ServiceConfig& config) {
  ServiceRun run;
  service::WalkService service(&PinGraph(), &app, &PinPartition(), config);
  run.stats = service.Run(&run.output).value();
  run.outcomes = service.outcomes();
  run.degradations = service.degradations();
  return run;
}

void ExpectServicePins(const ServiceRun& run, const ServicePins& want) {
  const service::ServiceRunStats& s = run.stats;
  const reliability::ReliabilityStats& rel = s.cluster.reliability;
  uint64_t outcome_hash = 0xcbf29ce484222325ULL;
  for (const service::QueryOutcome o : run.outcomes) {
    outcome_hash =
        (outcome_hash ^ static_cast<uint64_t>(o)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(s.cycles, want.cycles);
  EXPECT_EQ(s.cluster.steps, want.steps);
  EXPECT_EQ(s.completed, want.completed);
  EXPECT_EQ(s.failed, want.failed);
  EXPECT_EQ(s.shed_queue_full, want.shed_queue_full);
  EXPECT_EQ(s.shed_breaker, want.shed_breaker);
  EXPECT_EQ(s.shed_deadline, want.shed_deadline);
  EXPECT_EQ(s.retries, want.retries);
  EXPECT_EQ(s.degraded_shortened, want.degraded_shortened);
  EXPECT_EQ(s.degraded_uniform, want.degraded_uniform);
  EXPECT_EQ(s.breaker_trips, want.breaker_trips);
  EXPECT_EQ(rel.dram_uncorrectable, want.dram_uncorrectable);
  EXPECT_EQ(rel.dram_failed_accesses, want.dram_failed_accesses);
  EXPECT_EQ(rel.link_dropped, want.link_dropped);
  EXPECT_EQ(rel.retransmissions, want.retransmissions);
  EXPECT_EQ(rel.link_failed_sends, want.link_failed_sends);
  EXPECT_EQ(rel.board_failures, want.board_failures);
  EXPECT_EQ(rel.checkpoints, want.checkpoints);
  EXPECT_EQ(outcome_hash, want.outcome_hash);
  EXPECT_EQ(PathHash(run.output), want.path_hash);
}

TEST(GoldenTest, WalkServiceNode2VecOverloadPins) {
  const ServiceRun run = RunService(PinNode2Vec(), ServiceOverloadConfig());
  ASSERT_GT(run.stats.degraded_uniform, 0u);
  ASSERT_GT(run.stats.degraded_shortened, run.stats.degraded_uniform);
  ExpectServicePins(run, {277737, 5664, 624, 0, 134, 0, 266, 530, 540, 376,
                          0, 0, 0, 0, 0, 0, 0, 0, 0x837045fa17c956c7ULL,
                          0xf6a9555fa3308b81ULL});
}

TEST(GoldenTest, WalkServiceMetaPathFaultPins) {
  const ServiceRun run = RunService(PinMetaPath(), ServiceFaultConfig());
  ASSERT_GT(run.stats.failed, 0u);
  ASSERT_GT(run.stats.retries, 0u);
  ASSERT_GT(run.stats.breaker_trips, 0u);
  ExpectServicePins(run, {506454, 3084, 510, 2, 0, 0, 0, 37, 0, 0, 18, 567,
                          12, 85, 80, 5, 1, 31, 0xf43e5d38b651d955ULL,
                          0x4591e04989424d7aULL});
}

// A service walk is its ticket's batch walk, whatever the load and the
// faults: every completed query that was not degraded to uniform steps
// delivers the fault-free DistributedEngine path of its arrival index,
// cut to its first cap + 1 vertices when the service shortened it (the
// cap is half the requested length, at least 1). Returns the number of
// shortened walks checked.
uint64_t ExpectBatchWalks(const apps::WalkApp& app,
                          const service::ServiceConfig& config,
                          const ServiceRun& run) {
  const std::vector<service::ServiceQuery> arrivals =
      service::GenerateArrivals(config.arrivals, PinGraph()).value();
  std::vector<apps::WalkQuery> queries;
  for (const service::ServiceQuery& sq : arrivals) {
    queries.push_back(sq.query);
  }
  distributed::DistributedConfig batch_config = config.cluster;
  batch_config.board.faults = {};
  baseline::WalkOutput batch;
  distributed::DistributedEngine(&PinGraph(), &app, &PinPartition(),
                                 batch_config)
      .Run(queries, &batch)
      .value();
  uint64_t checked = 0;
  uint64_t shortened = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const service::Degradation d = run.degradations[i];
    if (run.outcomes[i] != service::QueryOutcome::kCompleted ||
        d == service::Degradation::kShortenedUniform) {
      continue;
    }
    const std::span<const graph::VertexId> want = batch.Path(i);
    size_t size = want.size();
    if (d == service::Degradation::kShortened) {
      size = std::min<size_t>(size, std::max(1u, queries[i].length / 2) + 1);
      ++shortened;
    }
    const std::span<const graph::VertexId> got = run.output.Path(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                           want.begin() + static_cast<ptrdiff_t>(size)))
        << "query " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  return shortened;
}

TEST(ServiceBatchIdentityTest, OverloadedNode2VecDeliversBatchWalks) {
  const service::ServiceConfig config = ServiceOverloadConfig();
  const ServiceRun run = RunService(PinNode2Vec(), config);
  EXPECT_GT(ExpectBatchWalks(PinNode2Vec(), config, run), 0u);
}

TEST(ServiceBatchIdentityTest, FaultyMetaPathDeliversBatchWalks) {
  const service::ServiceConfig config = ServiceFaultConfig();
  const ServiceRun run = RunService(PinMetaPath(), config);
  ASSERT_GT(run.stats.retries, 0u);
  ExpectBatchWalks(PinMetaPath(), config, run);
}

}  // namespace
}  // namespace lightrw
