// Properties of the fault-injection subsystem: schedules are a pure
// function of (seed, component id), disabled/zero-rate configurations
// change nothing anywhere in the stack, and every recovery path
// (ECC retry, retransmission, board failover) accounts exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "apps/walk_app.h"
#include "distributed/cluster_sim.h"
#include "distributed/config_validation.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "hwsim/dram.h"
#include "hwsim/link.h"
#include "hwsim/validation.h"
#include "lightrw/cycle_engine.h"
#include "obs/metrics.h"
#include "reliability/fault_injector.h"
#include "reliability/membership.h"

namespace lightrw {
namespace {

using apps::StaticWalkApp;
using graph::CsrGraph;
using reliability::FaultConfig;
using reliability::FaultStream;
using reliability::ReliabilityStats;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/4);
}

FaultConfig EnabledConfig() {
  FaultConfig faults;
  faults.enabled = true;
  return faults;
}

TEST(FaultStreamTest, SameSeedAndComponentBitIdentical) {
  FaultConfig faults = EnabledConfig();
  faults.dram_correctable_rate = 0.2;
  faults.dram_uncorrectable_rate = 0.05;
  FaultStream a(faults, 7);
  FaultStream b(faults, 7);
  for (int i = 0; i < 4096; ++i) {
    EXPECT_EQ(a.NextDramFault(), b.NextDramFault()) << "draw " << i;
  }
}

TEST(FaultStreamTest, ComponentsDrawIndependentSchedules) {
  FaultConfig faults = EnabledConfig();
  faults.link_drop_rate = 0.5;
  FaultStream a(faults, 0);
  FaultStream b(faults, 1);
  int differing = 0;
  for (int i = 0; i < 1024; ++i) {
    differing += a.NextLinkFault() != b.NextLinkFault();
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultStreamTest, ZeroRatesConsumeNoRandomness) {
  FaultStream stream(EnabledConfig(), 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(stream.NextDramFault(), reliability::DramFault::kNone);
    EXPECT_EQ(stream.NextLinkFault(), reliability::LinkFault::kNone);
  }
  EXPECT_EQ(stream.draws(), 0u);
}

TEST(FaultStreamTest, RatesApproximatelyRespected) {
  FaultConfig faults = EnabledConfig();
  faults.dram_correctable_rate = 0.25;
  FaultStream stream(faults, 11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += stream.NextDramFault() == reliability::DramFault::kCorrectable;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(FaultConfigTest, ValidationRejectsBadRates) {
  FaultConfig faults = EnabledConfig();
  faults.dram_correctable_rate = -0.1;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = EnabledConfig();
  faults.link_drop_rate = 1.5;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = EnabledConfig();
  faults.dram_correctable_rate = 0.7;
  faults.dram_uncorrectable_rate = 0.7;  // sum > 1
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  EXPECT_TRUE(reliability::ValidateFaultConfig(EnabledConfig()).ok());
  EXPECT_TRUE(reliability::ValidateFaultConfig(FaultConfig{}).ok());
}

TEST(HwsimValidationTest, RejectsDegenerateConfigs) {
  hwsim::DramConfig dram;
  dram.clock_hz = 0;
  EXPECT_FALSE(hwsim::ValidateDramConfig(dram).ok());
  EXPECT_TRUE(hwsim::ValidateDramConfig(hwsim::DramConfig{}).ok());
  hwsim::LinkConfig link;
  link.bytes_per_cycle = 0.0;
  EXPECT_FALSE(hwsim::ValidateLinkConfig(link).ok());
  EXPECT_TRUE(hwsim::ValidateLinkConfig(hwsim::LinkConfig{}).ok());
}

TEST(DramEccTest, CorrectableErrorDelaysButCompletes) {
  hwsim::DramConfig config;
  hwsim::DramChannel clean(config);
  hwsim::DramChannel faulty(config);
  FaultConfig faults = EnabledConfig();
  // Every access takes one correctable hit: ECC fixes it at the cost of
  // one burst re-issue, so the access always completes.
  faults.dram_correctable_rate = 1.0;
  FaultStream stream(faults, 0);
  ReliabilityStats rel;
  faulty.AttachFaults(&stream, &rel);
  hwsim::Cycle clean_done = 0, faulty_done = 0;
  for (int i = 0; i < 200; ++i) {
    clean_done = clean.Access(clean_done, 1);
    faulty_done = faulty.Access(faulty_done, 1);
  }
  EXPECT_GT(rel.dram_correctable, 0u);
  EXPECT_EQ(rel.dram_retries, rel.dram_correctable);
  EXPECT_EQ(rel.dram_failed_accesses, 0u);
  EXPECT_FALSE(faulty.TakeAccessFailure());
  // Retries re-occupy the channel, so the faulty channel finishes later.
  EXPECT_GT(faulty_done, clean_done);
}

TEST(DramEccTest, UncorrectablePastBudgetFailsAccess) {
  hwsim::DramChannel channel{hwsim::DramConfig{}};
  FaultConfig faults = EnabledConfig();
  faults.dram_uncorrectable_rate = 1.0;  // every issue fails
  faults.max_dram_retries = 2;
  FaultStream stream(faults, 0);
  ReliabilityStats rel;
  channel.AttachFaults(&stream, &rel);
  channel.Access(0, 4);
  EXPECT_TRUE(channel.TakeAccessFailure());
  EXPECT_FALSE(channel.TakeAccessFailure());  // sticky flag clears on read
  EXPECT_EQ(rel.dram_failed_accesses, 1u);
  EXPECT_EQ(rel.dram_uncorrectable, 3u);  // initial issue + 2 retries
  EXPECT_EQ(rel.dram_retries, 2u);
}

TEST(LinkRetransmitTest, NoFaultsMatchesPlainSend) {
  hwsim::LinkConfig config;
  hwsim::NetworkLink plain(config);
  hwsim::NetworkLink reliable(config);
  const auto arrival = plain.Send(0, 64);
  const auto delivery = reliable.SendReliable(0, 64);
  EXPECT_TRUE(delivery.delivered);
  EXPECT_EQ(delivery.arrival, arrival);
  EXPECT_EQ(delivery.attempts, 1u);
}

TEST(LinkRetransmitTest, DropsRetryWithBackoffUntilBudget) {
  hwsim::LinkConfig config;
  hwsim::NetworkLink link(config);
  FaultConfig faults = EnabledConfig();
  faults.link_drop_rate = 1.0;  // nothing ever gets through
  faults.max_retransmissions = 3;
  faults.retransmit_timeout_cycles = 100;
  FaultStream stream(faults, 0);
  ReliabilityStats rel;
  link.AttachFaults(&stream, &rel);
  const auto delivery = link.SendReliable(0, 64);
  EXPECT_FALSE(delivery.delivered);
  EXPECT_EQ(delivery.attempts, 4u);  // initial + 3 retransmissions
  EXPECT_EQ(rel.link_dropped, 4u);
  EXPECT_EQ(rel.retransmissions, 3u);
  EXPECT_EQ(rel.link_failed_sends, 1u);
  EXPECT_EQ(link.stats().messages, 4u);
}

core::AcceleratorConfig AccelConfig() {
  core::AcceleratorConfig config;
  config.num_instances = 2;
  config.seed = 9;
  return config;
}

struct RunResult {
  baseline::WalkOutput output;
  core::AccelRunStats stats;
  std::string metrics_json;
};

RunResult RunAccel(const core::AcceleratorConfig& base) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  obs::MetricsRegistry metrics;
  core::AcceleratorConfig config = base;
  config.metrics = &metrics;
  core::CycleEngine engine(&g, &app, config);
  const auto queries = apps::MakeVertexQueries(g, 12, 3, 400);
  RunResult result;
  result.stats = engine.Run(queries, &result.output);
  result.metrics_json = metrics.ToJsonString();
  return result;
}

// The central no-regression property: enabling the subsystem with all
// rates at zero must change no walk, no cycle count, and no metric.
TEST(FaultDeterminismTest, EnabledZeroRatesBitIdenticalToDisabled) {
  core::AcceleratorConfig off = AccelConfig();
  core::AcceleratorConfig on = AccelConfig();
  on.faults = EnabledConfig();
  const RunResult a = RunAccel(off);
  const RunResult b = RunAccel(on);
  EXPECT_EQ(a.output.vertices, b.output.vertices);
  EXPECT_EQ(a.output.offsets, b.output.offsets);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.dram.requests, b.stats.dram.requests);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_FALSE(b.stats.reliability.Any());

  // The same holds for a replicated 4-board cluster, which runs its
  // boards as independent shards whenever nothing can fail.
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  const auto queries = apps::MakeVertexQueries(g, 12, 3, 400);
  auto run_cluster = [&](const FaultConfig& faults,
                         baseline::WalkOutput* output) {
    distributed::DistributedConfig config;
    config.board.num_instances = 1;
    config.board.seed = 9;
    config.board.faults = faults;
    config.replicate_graph = true;
    return distributed::DistributedEngine(&g, &app, &p, config)
        .Run(queries, output)
        .value();
  };
  baseline::WalkOutput off_paths, on_paths;
  const auto cluster_off = run_cluster(FaultConfig{}, &off_paths);
  const auto cluster_on = run_cluster(EnabledConfig(), &on_paths);
  EXPECT_EQ(off_paths.vertices, on_paths.vertices);
  EXPECT_EQ(cluster_off.cycles, cluster_on.cycles);
  EXPECT_EQ(cluster_off.steps, cluster_on.steps);
  EXPECT_EQ(cluster_off.dram.requests, cluster_on.dram.requests);
  EXPECT_FALSE(cluster_on.reliability.Any());
}

TEST(FaultDeterminismTest, SameFaultSeedBitIdenticalRuns) {
  core::AcceleratorConfig config = AccelConfig();
  config.faults = EnabledConfig();
  config.faults.dram_correctable_rate = 0.01;
  config.faults.dram_uncorrectable_rate = 0.001;
  const RunResult a = RunAccel(config);
  const RunResult b = RunAccel(config);
  EXPECT_GT(a.stats.reliability.FaultsInjected(), 0u);
  EXPECT_EQ(a.output.vertices, b.output.vertices);
  EXPECT_EQ(a.output.offsets, b.output.offsets);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.reliability.dram_correctable,
            b.stats.reliability.dram_correctable);
  EXPECT_EQ(a.stats.reliability.walks_failed,
            b.stats.reliability.walks_failed);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(FaultDeterminismTest, DifferentFaultSeedsDifferentSchedules) {
  core::AcceleratorConfig config = AccelConfig();
  config.faults = EnabledConfig();
  config.faults.dram_correctable_rate = 0.01;
  const RunResult a = RunAccel(config);
  config.faults.seed = 2;
  const RunResult b = RunAccel(config);
  // Same walk RNG seed, different fault schedule: fault counts differ
  // (overwhelmingly likely over thousands of draws).
  EXPECT_NE(a.stats.cycles, b.stats.cycles);
}

TEST(FaultDeterminismTest, CorrectableFaultsSlowButPreserveWalks) {
  core::AcceleratorConfig clean = AccelConfig();
  core::AcceleratorConfig noisy = AccelConfig();
  noisy.faults = EnabledConfig();
  noisy.faults.dram_correctable_rate = 0.05;
  const RunResult a = RunAccel(clean);
  const RunResult b = RunAccel(noisy);
  // ECC corrections cost retries (time). The changed timing reshuffles
  // which in-flight walk samples next (the walk RNG draws in event
  // order), but no walk is corrupted or lost: every query retires with a
  // valid path.
  EXPECT_GT(b.stats.cycles, a.stats.cycles);
  EXPECT_GT(b.stats.reliability.dram_correctable, 0u);
  EXPECT_EQ(b.stats.reliability.walks_failed, 0u);
  EXPECT_EQ(b.stats.queries, a.stats.queries);
  EXPECT_EQ(b.output.offsets.size(), a.output.offsets.size());
}

TEST(FaultDeterminismTest, UncorrectableFaultsFailWalks) {
  core::AcceleratorConfig config = AccelConfig();
  config.faults = EnabledConfig();
  config.faults.dram_uncorrectable_rate = 0.02;
  config.faults.max_dram_retries = 1;
  const RunResult r = RunAccel(config);
  EXPECT_GT(r.stats.reliability.dram_failed_accesses, 0u);
  EXPECT_GT(r.stats.reliability.walks_failed, 0u);
  // Every query still retires (failed walks retire truncated).
  EXPECT_EQ(r.stats.queries, 400u);
  EXPECT_FALSE(
      reliability::ReliabilityStatus(r.stats.reliability).ok());
}

distributed::DistributedConfig DistConfig() {
  distributed::DistributedConfig config;
  config.board.num_instances = 1;
  config.board.seed = 13;
  return config;
}

TEST(DistributedFaultTest, RunRejectsInvalidConfig) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = DistConfig();
  config.walker_message_bytes = 0;
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 50);
  EXPECT_FALSE(engine.Run(queries).ok());
}

TEST(DistributedFaultTest, RunRejectsUnsatisfiableFailover) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 50);
  auto config = DistConfig();
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{1000, 7}};  // 7: out of range
  const auto four =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  EXPECT_FALSE(distributed::DistributedEngine(&g, &app, &four, config)
                   .Run(queries)
                   .ok());
  config.board.faults.board_deaths = {{1000, 0}};  // no survivor on 1 board
  const auto one =
      distributed::MakePartition(g, 1, distributed::PartitionStrategy::kHash);
  EXPECT_FALSE(distributed::DistributedEngine(&g, &app, &one, config)
                   .Run(queries)
                   .ok());
}

// The headline failover guarantee: killing a board mid-run in
// replicate_graph mode loses zero walks — every query retires, recovered
// walkers are counted, and the run exits clean.
TEST(DistributedFaultTest, BoardFailureRecoversAllWalksWhenReplicated) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = DistConfig();
  config.replicate_graph = true;
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{30000, /*board=*/1}};
  config.board.faults.checkpoint_interval_cycles = 4096;
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  baseline::WalkOutput output;
  const auto result = engine.Run(queries, &output);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(output.num_paths(), queries.size());
  EXPECT_EQ(stats.reliability.board_failures, 1u);
  EXPECT_GT(stats.reliability.walkers_recovered, 0u);
  EXPECT_GT(stats.reliability.checkpoints, 0u);
  EXPECT_EQ(stats.reliability.walkers_lost, 0u);
  EXPECT_EQ(stats.reliability.walks_failed, 0u);
  EXPECT_TRUE(reliability::ReliabilityStatus(stats.reliability).ok());
  // Recovered paths are still valid walks.
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    EXPECT_EQ(path[0], queries[i].start);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(DistributedFaultTest, BoardFailureRecoversInPartitionedMode) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = DistConfig();
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{30000, /*board=*/2}};
  config.board.faults.checkpoint_interval_cycles = 4096;
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  baseline::WalkOutput output;
  const auto result = engine.Run(queries, &output);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, queries.size());
  EXPECT_EQ(result->reliability.walkers_lost, 0u);
  EXPECT_GT(result->reliability.walkers_recovered, 0u);
  // Paths remain valid even across the partition re-assignment.
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(DistributedFaultTest, NoCheckpointsLosesWalks) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = DistConfig();
  config.replicate_graph = true;
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{30000, /*board=*/1}};
  config.board.faults.checkpoint_interval_cycles = 0;  // no checkpoints
  config.board.faults.allow_walker_loss = true;        // explicit opt-in
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  const auto result = engine.Run(queries);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->reliability.walkers_lost, 0u);
  EXPECT_EQ(result->reliability.walkers_recovered, 0u);
  EXPECT_FALSE(reliability::ReliabilityStatus(result->reliability).ok());
}

TEST(DistributedFaultTest, LinkFaultsRetransmitDeterministically) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = DistConfig();
  config.board.faults = EnabledConfig();
  config.board.faults.link_drop_rate = 0.02;
  config.board.faults.link_corrupt_rate = 0.01;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  const auto a =
      distributed::DistributedEngine(&g, &app, &p, config).Run(queries);
  const auto b =
      distributed::DistributedEngine(&g, &app, &p, config).Run(queries);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->reliability.retransmissions, 0u);
  EXPECT_EQ(a->cycles, b->cycles);
  EXPECT_EQ(a->reliability.retransmissions, b->reliability.retransmissions);
  EXPECT_EQ(a->reliability.link_dropped, b->reliability.link_dropped);
  // Retransmissions cost wire time but lose no messages below the budget.
  EXPECT_EQ(a->queries, queries.size());
}

TEST(DistributedFaultTest, ZeroRatesMatchDisabledRun) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 300);
  auto off = DistConfig();
  auto on = DistConfig();
  on.board.faults = EnabledConfig();
  baseline::WalkOutput out_off, out_on;
  const auto a = distributed::DistributedEngine(&g, &app, &p, off)
                     .Run(queries, &out_off);
  const auto b = distributed::DistributedEngine(&g, &app, &p, on)
                     .Run(queries, &out_on);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cycles, b->cycles);
  EXPECT_EQ(out_off.vertices, out_on.vertices);
  EXPECT_EQ(out_off.offsets, out_on.offsets);
  EXPECT_FALSE(b->reliability.Any());
}

// --- Membership epochs, hot spares, and partition rebuild -----------------

using reliability::BoardState;
using reliability::MembershipTransition;

TEST(MembershipLogTest, AcceptsLegalMonotoneLog) {
  const std::vector<MembershipTransition> log = {
      {1, 100, 1, BoardState::kAlive, BoardState::kDead},
      {2, 100, 4, BoardState::kSpare, BoardState::kRebuilding},
      {3, 900, 4, BoardState::kRebuilding, BoardState::kAlive},
  };
  EXPECT_TRUE(reliability::CheckMembershipLog(log).ok());
  EXPECT_TRUE(reliability::CheckMembershipLog({}).ok());
}

TEST(MembershipLogTest, RejectsEpochGapsCycleRegressionsAndIllegalEdges) {
  // Epoch must bump by exactly one per transition.
  EXPECT_FALSE(reliability::CheckMembershipLog(
                   {{2, 100, 1, BoardState::kAlive, BoardState::kDead}})
                   .ok());
  // Cycles are nondecreasing.
  EXPECT_FALSE(reliability::CheckMembershipLog(
                   {{1, 500, 1, BoardState::kAlive, BoardState::kDead},
                    {2, 100, 4, BoardState::kSpare, BoardState::kRebuilding}})
                   .ok());
  // Dead is terminal; alive boards never become spares.
  EXPECT_FALSE(reliability::CheckMembershipLog(
                   {{1, 100, 1, BoardState::kDead, BoardState::kAlive}})
                   .ok());
  EXPECT_FALSE(reliability::CheckMembershipLog(
                   {{1, 100, 1, BoardState::kAlive, BoardState::kSpare}})
                   .ok());
}

TEST(FaultConfigTest, EffectiveBoardDeathsFoldsSortsAndDedups) {
  FaultConfig faults = EnabledConfig();
  faults.board_deaths = {{5000, 2}, {3000, 1}, {3000, 0}, {7000, 1}};
  const auto deaths = reliability::EffectiveBoardDeaths(faults);
  ASSERT_EQ(deaths.size(), 3u);
  EXPECT_EQ(deaths[0].cycle, 3000u);
  EXPECT_EQ(deaths[0].board, 0u);
  EXPECT_EQ(deaths[1].cycle, 3000u);
  EXPECT_EQ(deaths[1].board, 1u);  // first death per board wins
  EXPECT_EQ(deaths[2].cycle, 5000u);
  EXPECT_EQ(deaths[2].board, 2u);
}

TEST(DistributedConfigTest, RejectsCheckpointFreeDeathWithoutOptIn) {
  auto config = DistConfig();
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{30000, 1}};
  config.board.faults.checkpoint_interval_cycles = 0;
  EXPECT_FALSE(distributed::ValidateDistributedConfig(config).ok());
  config.board.faults.allow_walker_loss = true;
  EXPECT_TRUE(distributed::ValidateDistributedConfig(config).ok());
  config.board.faults.allow_walker_loss = false;
  config.board.faults.checkpoint_interval_cycles = 4096;
  EXPECT_TRUE(distributed::ValidateDistributedConfig(config).ok());
}

TEST(DistributedConfigTest, RejectsDegenerateSpareKnobs) {
  auto config = DistConfig();
  config.num_spare_boards = 300;  // > 256
  EXPECT_FALSE(distributed::ValidateDistributedConfig(config).ok());
  config.num_spare_boards = 1;
  config.rebuild_bytes_per_cycle = 0.0;
  EXPECT_FALSE(distributed::ValidateDistributedConfig(config).ok());
  config.rebuild_bytes_per_cycle = 32.0;
  EXPECT_TRUE(distributed::ValidateDistributedConfig(config).ok());
}

distributed::DistributedConfig SelfHealConfig(bool replicate,
                                              uint32_t spares) {
  auto config = DistConfig();
  config.replicate_graph = replicate;
  config.num_spare_boards = spares;
  config.rebuild_bytes_per_cycle = 256.0;
  config.board.faults = EnabledConfig();
  config.board.faults.checkpoint_interval_cycles = 4096;
  return config;
}

// One death absorbed by one spare: the spare rebuilds the dead board's
// partition share, takes over its ownership, and the membership log
// records exactly dead -> rebuilding -> alive with epochs 1..3.
TEST(SelfHealingTest, SpareRebuildTransfersOwnership) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/1);
  config.board.faults.board_deaths = {{30000, 2}};
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  baseline::WalkOutput output;
  const auto result = engine.Run(queries, &output);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(output.num_paths(), queries.size());
  EXPECT_EQ(stats.reliability.board_failures, 1u);
  EXPECT_EQ(stats.reliability.spares_activated, 1u);
  EXPECT_EQ(stats.reliability.rebuilds_completed, 1u);
  EXPECT_EQ(stats.reliability.spare_exhaustions, 0u);
  EXPECT_EQ(stats.reliability.walkers_lost, 0u);
  EXPECT_EQ(stats.reliability.walks_failed, 0u);
  EXPECT_GT(stats.reliability.rebuild_cycles, 0u);
  ASSERT_EQ(stats.membership.size(), 3u);
  EXPECT_TRUE(reliability::CheckMembershipLog(stats.membership).ok());
  EXPECT_EQ(stats.membership[0].board, 2u);
  EXPECT_EQ(stats.membership[0].to, BoardState::kDead);
  EXPECT_EQ(stats.membership[1].board, 4u);  // spare sits past the owners
  EXPECT_EQ(stats.membership[1].to, BoardState::kRebuilding);
  EXPECT_EQ(stats.membership[2].board, 4u);
  EXPECT_EQ(stats.membership[2].to, BoardState::kAlive);
  // Paths survive the ownership transfer intact.
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

// Killing the spare while it is still rebuilding aborts the rebuild; the
// share falls back to the survivors and no walk is lost.
TEST(SelfHealingTest, DeathDuringRebuildFallsBackToSurvivors) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/true, /*spares=*/1);
  // Replicated share is the full graph (~1 MB): at 8 B/cycle the rebuild
  // runs for >100k cycles, so the second death lands mid-rebuild.
  config.rebuild_bytes_per_cycle = 8.0;
  config.board.faults.board_deaths = {{30000, 1}, {40000, 4}};
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  const auto result = engine.Run(queries);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, queries.size());
  EXPECT_EQ(result->reliability.board_failures, 2u);
  EXPECT_EQ(result->reliability.spares_activated, 1u);
  EXPECT_EQ(result->reliability.rebuilds_aborted, 1u);
  EXPECT_EQ(result->reliability.rebuilds_completed, 0u);
  EXPECT_EQ(result->reliability.spare_exhaustions, 1u);
  EXPECT_EQ(result->reliability.walkers_lost, 0u);
  EXPECT_TRUE(reliability::CheckMembershipLog(result->membership).ok());
}

// More deaths than spares: the pool drains, the cluster degrades to the
// survivors, and checkpointed recovery still conserves every walk.
TEST(SelfHealingTest, SpareExhaustionDegradesGracefully) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/true, /*spares=*/1);
  config.board.faults.board_deaths = {{20000, 1}, {35000, 2}};
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  const auto result = engine.Run(queries);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, queries.size());
  EXPECT_EQ(result->reliability.board_failures, 2u);
  EXPECT_EQ(result->reliability.spares_activated, 1u);
  EXPECT_EQ(result->reliability.spare_exhaustions, 1u);
  EXPECT_EQ(result->reliability.walkers_lost, 0u);
  EXPECT_EQ(result->reliability.walks_failed, 0u);
  EXPECT_TRUE(reliability::CheckMembershipLog(result->membership).ok());
}

// Triple death across a 4-board cluster with two spares: two absorbed,
// the third exhausts the pool — and every query still retires.
TEST(SelfHealingTest, TripleDeathConservesWalkers) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/2);
  config.board.faults.board_deaths = {{20000, 1}, {35000, 2}, {50000, 3}};
  distributed::DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  baseline::WalkOutput output;
  const auto result = engine.Run(queries, &output);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, queries.size());
  EXPECT_EQ(output.num_paths(), queries.size());
  EXPECT_EQ(result->reliability.board_failures, 3u);
  EXPECT_EQ(result->reliability.spares_activated, 2u);
  EXPECT_EQ(result->reliability.spare_exhaustions, 1u);
  EXPECT_EQ(result->reliability.walkers_lost, 0u);
  EXPECT_TRUE(reliability::CheckMembershipLog(result->membership).ok());
}

// The rebuild duration is the modeled copy cost: a quarter of the
// bandwidth must cost roughly four times the rebuild cycles.
TEST(SelfHealingTest, RebuildBandwidthScalesRebuildCost) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 800);
  auto run_at = [&](double bw) {
    auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/1);
    config.rebuild_bytes_per_cycle = bw;
    config.board.faults.board_deaths = {{30000, 2}};
    distributed::DistributedEngine engine(&g, &app, &p, config);
    const auto result = engine.Run(queries);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->reliability.rebuilds_completed, 1u);
    return result->reliability.rebuild_cycles;
  };
  const uint64_t fast = run_at(256.0);
  const uint64_t slow = run_at(64.0);
  EXPECT_GT(slow, fast);
}

// The largest share's copy must take fewer than 2^47 cycles: the bound
// sits exactly at bytes / 2^47 B/cycle, whatever the graph mode.
TEST(SelfHealingTest, RebuildBoundIsTwoToTheFortySevenCycles) {
  const CsrGraph g = TestGraph();
  const auto p =
      distributed::MakePartition(g, 4, distributed::PartitionStrategy::kHash);
  for (const bool replicate : {false, true}) {
    auto config = SelfHealConfig(replicate, /*spares=*/1);
    config.board.faults.board_deaths = {{30000, 2}};
    uint64_t largest = g.ModeledByteSize();
    if (!replicate) {
      const std::vector<uint64_t> shares = p.ShareByteSizes(g);
      largest = *std::max_element(shares.begin(), shares.end());
    }
    const double at_bound = static_cast<double>(largest) / 0x1p47;
    config.rebuild_bytes_per_cycle = at_bound;
    const Status rejected =
        distributed::CheckFailoverSatisfiable(config, g, p);
    EXPECT_EQ(rejected.code(), StatusCode::kOutOfRange) << replicate;
    config.rebuild_bytes_per_cycle = at_bound * 1.01;
    EXPECT_TRUE(distributed::CheckFailoverSatisfiable(config, g, p).ok())
        << replicate;
    // No death, no rebuild: the rate is never used.
    config.board.faults.board_deaths.clear();
    config.rebuild_bytes_per_cycle = at_bound;
    EXPECT_TRUE(distributed::CheckFailoverSatisfiable(config, g, p).ok());
  }
}

// Scrub budgets are bytes_per_cycle * interval converted to 64 bits:
// non-finite rates are rejected by name, and budgets of 2^63 or more as
// out of range.
TEST(FaultConfigTest, RejectsNonFiniteAndOverflowingScrubBudgets) {
  FaultConfig faults = EnabledConfig();
  faults.ckpt_store.enabled = true;
  faults.ckpt_store.scrub_interval_cycles = 1 << 14;
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    faults.ckpt_store.scrub_bytes_per_cycle = rate;
    const Status status = reliability::ValidateFaultConfig(faults);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << rate;
    EXPECT_NE(status.message().find("scrub_bytes_per_cycle"),
              std::string::npos);
  }
  faults.ckpt_store.scrub_bytes_per_cycle = 0x1p63 / (1 << 14);
  EXPECT_EQ(reliability::ValidateFaultConfig(faults).code(),
            StatusCode::kOutOfRange);
  faults.ckpt_store.scrub_bytes_per_cycle = 0x1p62 / (1 << 14);
  EXPECT_TRUE(reliability::ValidateFaultConfig(faults).ok());
}

// Death schedules that would kill every partition owner are rejected up
// front — spares do not relax the bound, because a rebuild needs a live
// source to copy from.
TEST(FaultStreamTest, CkptDrawsDeterministicAndZeroRateFree) {
  FaultConfig faults = EnabledConfig();
  faults.ckpt_store.enabled = true;
  // All-zero storage rates consume no randomness at all.
  FaultStream idle(faults, 5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(idle.NextTornWrite());
    EXPECT_FALSE(idle.NextStalePublish());
    EXPECT_FALSE(idle.NextBitRot(53));
  }
  EXPECT_EQ(idle.draws(), 0u);
  // Nonzero rates replay bit-identically per (seed, component id).
  faults.ckpt_store.torn_write_rate = 0.3;
  faults.ckpt_store.bit_rot_per_byte = 0.01;
  faults.ckpt_store.stale_publish_rate = 0.1;
  FaultStream a(faults, 7);
  FaultStream b(faults, 7);
  for (int i = 0; i < 2048; ++i) {
    EXPECT_EQ(a.NextTornWrite(), b.NextTornWrite()) << "draw " << i;
    EXPECT_EQ(a.NextStalePublish(), b.NextStalePublish()) << "draw " << i;
    EXPECT_EQ(a.NextBitRot(53), b.NextBitRot(53)) << "draw " << i;
    EXPECT_EQ(a.NextPosition(53), b.NextPosition(53)) << "draw " << i;
  }
  EXPECT_EQ(a.draws(), b.draws());
  EXPECT_GT(a.draws(), 0u);
}

TEST(DistributedConfigTest, CkptStoreRelaxesTheCheckpointFreeDeathRule) {
  auto config = DistConfig();
  config.board.faults = EnabledConfig();
  config.board.faults.board_deaths = {{30000, 1}};
  config.board.faults.checkpoint_interval_cycles = 0;
  const auto rejected = distributed::ValidateDistributedConfig(config);
  ASSERT_FALSE(rejected.ok());
  // The rejection names the durable-store opt-in as a way out.
  EXPECT_NE(rejected.message().find("--ckpt-store"), std::string::npos)
      << rejected.message();
  config.board.faults.ckpt_store.enabled = true;
  EXPECT_TRUE(distributed::ValidateDistributedConfig(config).ok());
}

// Killing every partition owner is survivable once the durable store is
// on and a spare exists to rebuild onto: walkers park through the
// outage, the spare rebuilds the share, and every walk completes from
// its last durable checkpoint — bit-identically for every host thread
// count.
TEST(SelfHealingTest, DurableStoreSurvivesTotalOwnerLoss) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 2, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/1);
  config.board.faults.ckpt_store.enabled = true;
  config.board.faults.ckpt_store.bit_rot_per_byte = 1e-4;
  // Both owners die back-to-back: the second death lands before the
  // spare finishes rebuilding, so for a window nothing is alive.
  config.board.faults.board_deaths = {{8000, 0}, {9000, 1}};
  const auto queries = apps::MakeVertexQueries(g, 20, 3, 400);
  auto run_with = [&](uint32_t threads) {
    auto run_config = config;
    run_config.num_threads = threads;
    distributed::DistributedEngine engine(&g, &app, &p, run_config);
    baseline::WalkOutput output;
    const auto result = engine.Run(queries, &output);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(output.num_paths(), queries.size());
    return *result;
  };
  const auto stats = run_with(1);
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.reliability.board_failures, 2u);
  EXPECT_EQ(stats.reliability.walkers_lost, 0u);
  EXPECT_EQ(stats.reliability.walks_failed, 0u);
  EXPECT_GE(stats.reliability.rebuilds_completed, 1u);
  EXPECT_GT(stats.reliability.ckpt_store_writes, 0u);
  EXPECT_GT(stats.reliability.ckpt_store_reads, 0u);
  EXPECT_EQ(stats.reliability.ckpt_silent_accepts, 0u);
  EXPECT_GT(stats.reliability.walkers_recovered, 0u);
  EXPECT_TRUE(reliability::CheckMembershipLog(stats.membership).ok());
  // The whole recovery is deterministic across host thread counts.
  const auto stats4 = run_with(4);
  EXPECT_EQ(stats.cycles, stats4.cycles);
  EXPECT_EQ(stats.reliability.ckpt_store_reads,
            stats4.reliability.ckpt_store_reads);
  EXPECT_EQ(stats.reliability.ckpt_crc_failures,
            stats4.reliability.ckpt_crc_failures);
  EXPECT_EQ(stats.reliability.recovery_cycles,
            stats4.reliability.recovery_cycles);
}

// Without a spare the schedule still has no live end state, store or
// not — the configuration is rejected up front.
TEST(SelfHealingTest, StoreWithoutSpareStillRejectsTotalOwnerLoss) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 2, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/0);
  config.board.faults.ckpt_store.enabled = true;
  config.board.faults.board_deaths = {{8000, 0}, {9000, 1}};
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 50);
  const auto result =
      distributed::DistributedEngine(&g, &app, &p, config).Run(queries);
  EXPECT_FALSE(result.ok());
}

TEST(SelfHealingTest, AllOwnersDeadRejectedEvenWithSpares) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto p =
      distributed::MakePartition(g, 2, distributed::PartitionStrategy::kHash);
  auto config = SelfHealConfig(/*replicate=*/false, /*spares=*/2);
  config.board.faults.board_deaths = {{20000, 0}, {40000, 1}};
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 50);
  const auto result =
      distributed::DistributedEngine(&g, &app, &p, config).Run(queries);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace lightrw
