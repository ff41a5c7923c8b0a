// The deterministic-parallelism contract (common/sim_thread_pool.h):
// every engine must produce bit-identical results for every host thread
// count, because work is decomposed into config-defined shards whose
// private state merges in fixed shard order. These tests pin that
// contract for each engine — walk corpora, run stats, and service
// outcomes at threads 1 vs 2, 4, and 7 (a non-divisor of every shard
// count used, so claiming is intentionally ragged) — including under
// fault injection and early-stopping apps.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "common/sim_thread_pool.h"
#include "distributed/config_validation.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "lightrw/config_validation.h"
#include "lightrw/cycle_engine.h"
#include "obs/span.h"
#include "reliability/membership.h"
#include "service/walk_service.h"

namespace lightrw {
namespace {

using apps::PprApp;
using apps::StaticWalkApp;
using apps::WalkQuery;
using baseline::WalkOutput;
using distributed::DistributedConfig;
using distributed::DistributedEngine;
using distributed::DistributedRunStats;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;
using graph::CsrGraph;
using service::ServiceConfig;
using service::ServiceRunStats;
using service::WalkService;

constexpr uint32_t kThreadSweep[] = {2, 4, 7};

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/9);
}

void ExpectSameCorpus(const WalkOutput& a, const WalkOutput& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.offsets, b.offsets);
}

void ExpectSameReliability(const reliability::ReliabilityStats& a,
                           const reliability::ReliabilityStats& b) {
  EXPECT_EQ(a.dram_correctable, b.dram_correctable);
  EXPECT_EQ(a.dram_uncorrectable, b.dram_uncorrectable);
  EXPECT_EQ(a.dram_retries, b.dram_retries);
  EXPECT_EQ(a.dram_failed_accesses, b.dram_failed_accesses);
  EXPECT_EQ(a.link_dropped, b.link_dropped);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.board_failures, b.board_failures);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.walkers_recovered, b.walkers_recovered);
  EXPECT_EQ(a.walkers_lost, b.walkers_lost);
  EXPECT_EQ(a.walks_failed, b.walks_failed);
  EXPECT_EQ(a.spares_activated, b.spares_activated);
  EXPECT_EQ(a.rebuilds_completed, b.rebuilds_completed);
  EXPECT_EQ(a.rebuilds_aborted, b.rebuilds_aborted);
  EXPECT_EQ(a.spare_exhaustions, b.spare_exhaustions);
  EXPECT_EQ(a.rebuild_cycles, b.rebuild_cycles);
}

// --- SimThreadPool itself -------------------------------------------------

TEST(SimThreadPoolTest, ParallelForVisitsEveryShardExactlyOnce) {
  for (const uint32_t threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> visits(23);
    SimThreadPool::ParallelFor(threads, visits.size(), [&](size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "shard " << i;
    }
  }
}

TEST(SimThreadPoolTest, ParallelForHandlesZeroShards) {
  bool ran = false;
  SimThreadPool::ParallelFor(4, 0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(SimThreadPoolTest, ResolveThreadsClampsAndDefaults) {
  EXPECT_EQ(SimThreadPool::ResolveThreads(3), 3u);
  EXPECT_EQ(SimThreadPool::ResolveThreads(0),
            SimThreadPool::DefaultThreads());
  const uint32_t prev = SimThreadPool::DefaultThreads();
  SimThreadPool::SetDefaultThreads(5);
  EXPECT_EQ(SimThreadPool::DefaultThreads(), 5u);
  EXPECT_EQ(SimThreadPool::ResolveThreads(0), 5u);
  SimThreadPool::SetDefaultThreads(prev);
}

// LIGHTRW_SIM_THREADS takes decimal digits in [0, 256] and nothing else;
// only the parse runs here, never a pool with the value.
TEST(SimThreadPoolTest, EnvThreadsIsStrict) {
  const char* ambient = std::getenv("LIGHTRW_SIM_THREADS");
  const std::string saved = ambient != nullptr ? ambient : "";
  const auto env_threads = [](const char* value) {
    setenv("LIGHTRW_SIM_THREADS", value, 1);
    return SimThreadPool::EnvThreads();
  };
  EXPECT_EQ(env_threads("").value(), 1u);
  EXPECT_EQ(env_threads("0").value(), 1u);
  EXPECT_EQ(env_threads("4").value(), 4u);
  EXPECT_EQ(env_threads("256").value(), 256u);
  for (const char* bad : {"abc", "-1", "4x", "257", "1000", " 4"}) {
    const StatusOr<uint32_t> threads = env_threads(bad);
    ASSERT_FALSE(threads.ok()) << bad;
    EXPECT_NE(threads.status().ToString().find("LIGHTRW_SIM_THREADS"),
              std::string::npos)
        << threads.status().ToString();
  }
  if (ambient != nullptr) {
    setenv("LIGHTRW_SIM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("LIGHTRW_SIM_THREADS");
  }
}

// --- CycleEngine: one shard per accelerator instance ----------------------

struct CycleRun {
  WalkOutput corpus;
  core::AccelRunStats stats;
};

CycleRun RunCycle(const CsrGraph& g, const apps::WalkApp& app,
                  uint32_t threads, const reliability::FaultConfig& faults) {
  core::AcceleratorConfig config;
  config.num_instances = 4;
  config.seed = 31;
  config.num_threads = threads;
  config.collect_latency = true;
  config.faults = faults;
  const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                               /*seed=*/5, /*limit=*/600);
  core::CycleEngine engine(&g, &app, config);
  CycleRun run;
  run.stats = engine.Run(queries, &run.corpus);
  return run;
}

void ExpectSameCycleStats(const core::AccelRunStats& a,
                          const core::AccelRunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.dram.requests, b.dram.requests);
  EXPECT_EQ(a.dram.bytes, b.dram.bytes);
  EXPECT_EQ(a.dram.busy_cycles, b.dram.busy_cycles);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.burst.requests, b.burst.requests);
  EXPECT_EQ(a.burst.loaded_bytes, b.burst.loaded_bytes);
  EXPECT_EQ(a.prev_refetches, b.prev_refetches);
  ExpectSameReliability(a.reliability, b.reliability);
  ASSERT_EQ(a.query_latency_cycles.count(), b.query_latency_cycles.count());
  EXPECT_EQ(a.query_latency_cycles.sorted_samples(),
            b.query_latency_cycles.sorted_samples());
}

TEST(ParallelCycleEngineTest, ThreadCountDoesNotChangeResults) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const CycleRun serial = RunCycle(g, app, 1, {});
  EXPECT_GT(serial.stats.steps, 0u);
  for (const uint32_t threads : kThreadSweep) {
    const CycleRun parallel = RunCycle(g, app, threads, {});
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameCycleStats(serial.stats, parallel.stats);
  }
}

TEST(ParallelCycleEngineTest, HoldsUnderFaultInjection) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 77;
  faults.dram_correctable_rate = 1e-3;
  faults.dram_uncorrectable_rate = 1e-4;
  const CycleRun serial = RunCycle(g, app, 1, faults);
  EXPECT_TRUE(serial.stats.reliability.Any());
  for (const uint32_t threads : kThreadSweep) {
    const CycleRun parallel = RunCycle(g, app, threads, faults);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameCycleStats(serial.stats, parallel.stats);
  }
}

TEST(ParallelCycleEngineTest, HoldsWithEarlyStoppingApp) {
  const CsrGraph g = TestGraph();
  const PprApp app(/*stop_probability=*/0.2);
  const CycleRun serial = RunCycle(g, app, 1, {});
  for (const uint32_t threads : kThreadSweep) {
    const CycleRun parallel = RunCycle(g, app, threads, {});
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameCycleStats(serial.stats, parallel.stats);
  }
}

// --- DistributedEngine: one shard per board (replicated mode) -------------

struct DistRun {
  WalkOutput corpus;
  DistributedRunStats stats;
};

DistRun RunDistributed(const CsrGraph& g, const apps::WalkApp& app,
                       const Partition& partition, uint32_t threads,
                       bool replicate,
                       const reliability::FaultConfig& faults) {
  DistributedConfig config;
  config.board.num_instances = 1;
  config.board.seed = 17;
  config.board.faults = faults;
  config.replicate_graph = replicate;
  config.num_threads = threads;
  const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                               /*seed=*/5, /*limit=*/600);
  DistributedEngine engine(&g, &app, &partition, config);
  DistRun run;
  run.stats = engine.Run(queries, &run.corpus).value();
  return run;
}

void ExpectSameDistStats(const DistributedRunStats& a,
                         const DistributedRunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.dram.requests, b.dram.requests);
  EXPECT_EQ(a.dram.bytes, b.dram.bytes);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.payload_bytes, b.network.payload_bytes);
  EXPECT_EQ(a.per_board_graph_bytes, b.per_board_graph_bytes);
  ExpectSameReliability(a.reliability, b.reliability);
}

TEST(ParallelDistributedTest, ReplicatedThreadCountDoesNotChangeResults) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const DistRun serial =
      RunDistributed(g, app, partition, 1, /*replicate=*/true, {});
  EXPECT_GT(serial.stats.steps, 0u);
  for (const uint32_t threads : kThreadSweep) {
    const DistRun parallel =
        RunDistributed(g, app, partition, threads, /*replicate=*/true, {});
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameDistStats(serial.stats, parallel.stats);
  }
}

TEST(ParallelDistributedTest, ReplicatedHoldsWithEarlyStoppingApp) {
  const CsrGraph g = TestGraph();
  const PprApp app(/*stop_probability=*/0.2);
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const DistRun serial =
      RunDistributed(g, app, partition, 1, /*replicate=*/true, {});
  for (const uint32_t threads : kThreadSweep) {
    const DistRun parallel =
        RunDistributed(g, app, partition, threads, /*replicate=*/true, {});
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameDistStats(serial.stats, parallel.stats);
  }
}

// Fault injection couples boards through failover, so the engine must
// fall back to the single coupled event loop — and still be invariant
// to the configured thread count.
TEST(ParallelDistributedTest, FaultInjectionFallsBackDeterministically) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 3;
  faults.board_deaths = {{1 << 14, /*board=*/1}};
  faults.checkpoint_interval_cycles = 1 << 12;
  const DistRun serial =
      RunDistributed(g, app, partition, 1, /*replicate=*/true, faults);
  EXPECT_EQ(serial.stats.reliability.board_failures, 1u);
  for (const uint32_t threads : kThreadSweep) {
    const DistRun parallel =
        RunDistributed(g, app, partition, threads, /*replicate=*/true,
                       faults);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameDistStats(serial.stats, parallel.stats);
  }
}

// Self-healing runs — a cascade of deaths absorbed by hot spares — add
// membership events and rebuild completions to the coupled event loop;
// corpus, stats, the membership log, and the span JSON document must all
// stay byte-identical across thread counts.
TEST(ParallelDistributedTest, SpareRebuildCascadeDeterministicAcrossThreads) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const auto queries = apps::MakeVertexQueries(g, /*length=*/16,
                                               /*seed=*/5, /*limit=*/600);
  struct Run {
    WalkOutput corpus;
    DistributedRunStats stats;
    std::string span_json;
    std::string membership_json;
  };
  auto run_with = [&](uint32_t threads) {
    DistributedConfig config;
    config.board.num_instances = 1;
    config.board.seed = 17;
    config.replicate_graph = true;
    config.num_threads = threads;
    config.num_spare_boards = 1;
    config.rebuild_bytes_per_cycle = 256.0;
    config.board.faults.enabled = true;
    config.board.faults.seed = 3;
    config.board.faults.checkpoint_interval_cycles = 1 << 12;
    config.board.faults.board_deaths = {{1 << 14, 1}, {1 << 15, 2}};
    obs::SpanRecorder spans;
    config.board.spans = &spans;
    DistributedEngine engine(&g, &app, &partition, config);
    Run run;
    run.stats = engine.Run(queries, &run.corpus).value();
    run.span_json = spans.ToJsonString();
    run.membership_json =
        reliability::MembershipToJson(run.stats.membership).Dump();
    return run;
  };
  const Run serial = run_with(1);
  EXPECT_EQ(serial.stats.reliability.board_failures, 2u);
  EXPECT_EQ(serial.stats.reliability.spares_activated, 1u);
  EXPECT_EQ(serial.stats.reliability.walkers_lost, 0u);
  EXPECT_TRUE(
      reliability::CheckMembershipLog(serial.stats.membership).ok());
  for (const uint32_t threads : kThreadSweep) {
    const Run parallel = run_with(threads);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameDistStats(serial.stats, parallel.stats);
    EXPECT_EQ(serial.membership_json, parallel.membership_json);
    EXPECT_EQ(serial.span_json, parallel.span_json) << "threads " << threads;
  }
}

// One coupled event loop over every board. MetaPath meets walks whose
// weights are all zero, Node2Vec weights that depend on the previous
// vertex, and PPR walks that end on stop coins.
TEST(ParallelDistributedTest, PartitionedModeUnaffectedByThreads) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp deepwalk;
  const apps::MetaPathApp metapath(
      apps::MakeRandomRelationPath(g, 16, /*seed=*/9));
  const apps::Node2VecApp node2vec(2.0, 0.5);
  const PprApp ppr(/*stop_probability=*/0.2);
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  for (const apps::WalkApp* app : std::initializer_list<const apps::WalkApp*>{
           &deepwalk, &metapath, &node2vec, &ppr}) {
    SCOPED_TRACE(app->name());
    const DistRun serial =
        RunDistributed(g, *app, partition, 1, /*replicate=*/false, {});
    EXPECT_GT(serial.stats.migrations, 0u);
    for (const uint32_t threads : kThreadSweep) {
      const DistRun parallel = RunDistributed(g, *app, partition, threads,
                                              /*replicate=*/false, {});
      ExpectSameCorpus(serial.corpus, parallel.corpus);
      ExpectSameDistStats(serial.stats, parallel.stats);
    }
  }
}

// --- WalkService: one shard per admission board group ---------------------

struct ServiceRun {
  WalkOutput corpus;
  ServiceRunStats stats;
  std::vector<service::QueryOutcome> outcomes;
};

ServiceRun RunService(const CsrGraph& g, const apps::WalkApp& app,
                      const Partition& partition, uint32_t shards,
                      uint32_t threads, bool overload) {
  ServiceConfig config;
  config.cluster.board.num_instances = 1;
  config.cluster.board.seed = 13;
  config.cluster.replicate_graph = true;
  config.cluster.num_threads = threads;
  config.admission_shards = shards;
  config.arrivals.seed = 7;
  config.arrivals.num_queries = 384;
  config.arrivals.walk_length = 16;
  if (overload) {
    config.arrivals.rate_per_kcycle = 32.0;
    config.arrivals.deadline_cycles = 1 << 12;
    config.queue_capacity = 4;
    config.retry_budget = 1;
    config.retry_backoff_cycles = 256;
    config.cluster.inflight_walkers_per_board = 2;
  } else {
    config.arrivals.rate_per_kcycle = 0.05;
  }
  WalkService walk_service(&g, &app, &partition, config);
  ServiceRun run;
  run.stats = walk_service.Run(&run.corpus).value();
  run.outcomes = walk_service.outcomes();
  return run;
}

void ExpectSameServiceStats(const ServiceRunStats& a,
                            const ServiceRunStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
  EXPECT_EQ(a.shed_breaker, b.shed_breaker);
  EXPECT_EQ(a.shed_deadline, b.shed_deadline);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_EQ(a.cycles, b.cycles);
  ASSERT_EQ(a.queue_delay_cycles.count(), b.queue_delay_cycles.count());
  EXPECT_EQ(a.queue_delay_cycles.sorted_samples(),
            b.queue_delay_cycles.sorted_samples());
  ASSERT_EQ(a.latency_cycles.count(), b.latency_cycles.count());
  EXPECT_EQ(a.latency_cycles.sorted_samples(),
            b.latency_cycles.sorted_samples());
  EXPECT_EQ(a.cluster.steps, b.cluster.steps);
  EXPECT_EQ(a.cluster.dram.bytes, b.cluster.dram.bytes);
}

TEST(ParallelServiceTest, ShardedThreadCountDoesNotChangeResults) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const ServiceRun serial = RunService(g, app, partition, /*shards=*/4, 1,
                                       /*overload=*/false);
  EXPECT_GT(serial.stats.completed, 0u);
  for (const uint32_t threads : kThreadSweep) {
    const ServiceRun parallel = RunService(g, app, partition, /*shards=*/4,
                                           threads, /*overload=*/false);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameServiceStats(serial.stats, parallel.stats);
    EXPECT_EQ(serial.outcomes, parallel.outcomes);
  }
}

TEST(ParallelServiceTest, HoldsUnderOverload) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const ServiceRun serial = RunService(g, app, partition, /*shards=*/4, 1,
                                       /*overload=*/true);
  EXPECT_GT(serial.stats.Shed() + serial.stats.retries, 0u);
  for (const uint32_t threads : kThreadSweep) {
    const ServiceRun parallel = RunService(g, app, partition, /*shards=*/4,
                                           threads, /*overload=*/true);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameServiceStats(serial.stats, parallel.stats);
    EXPECT_EQ(serial.outcomes, parallel.outcomes);
  }
}

TEST(ParallelServiceTest, SingleShardUnaffectedByThreads) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  const ServiceRun serial = RunService(g, app, partition, /*shards=*/1, 1,
                                       /*overload=*/false);
  for (const uint32_t threads : kThreadSweep) {
    const ServiceRun parallel = RunService(g, app, partition, /*shards=*/1,
                                           threads, /*overload=*/false);
    ExpectSameCorpus(serial.corpus, parallel.corpus);
    ExpectSameServiceStats(serial.stats, parallel.stats);
    EXPECT_EQ(serial.outcomes, parallel.outcomes);
  }
}

// --- configuration validation ---------------------------------------------

TEST(ParallelConfigTest, RejectsOversizedThreadCounts) {
  core::AcceleratorConfig accel;
  accel.num_threads = SimThreadPool::kMaxThreads + 1;
  EXPECT_FALSE(core::ValidateConfig(accel, false).ok());

  DistributedConfig dist;
  dist.num_threads = SimThreadPool::kMaxThreads + 1;
  EXPECT_FALSE(distributed::ValidateDistributedConfig(dist).ok());
}

TEST(ParallelConfigTest, RejectsBadAdmissionShards) {
  ServiceConfig config;
  config.admission_shards = 0;
  EXPECT_FALSE(service::ValidateServiceConfig(config).ok());

  config.admission_shards = 2;
  config.cluster.replicate_graph = false;
  EXPECT_FALSE(service::ValidateServiceConfig(config).ok());

  config.cluster.replicate_graph = true;
  config.cluster.board.faults.enabled = true;
  config.cluster.board.faults.board_deaths = {{1000, /*board=*/1}};
  EXPECT_FALSE(service::ValidateServiceConfig(config).ok());
  // A fault config that can inject nothing does not couple shards.
  config.cluster.board.faults.board_deaths.clear();
  EXPECT_TRUE(service::ValidateServiceConfig(config).ok());
  config.cluster.board.faults.enabled = false;
  EXPECT_TRUE(service::ValidateServiceConfig(config).ok());
}

TEST(ParallelConfigTest, ShardsMustDivideBoards) {
  const CsrGraph g = TestGraph();
  const StaticWalkApp app;
  const Partition partition = MakePartition(g, 4, PartitionStrategy::kHash);
  ServiceConfig config;
  config.cluster.replicate_graph = true;
  config.admission_shards = 3;  // 4 boards: does not divide
  WalkService walk_service(&g, &app, &partition, config);
  EXPECT_FALSE(walk_service.Run().ok());
}

}  // namespace
}  // namespace lightrw
