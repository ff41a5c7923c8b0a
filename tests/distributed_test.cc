#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "distributed/config_validation.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/functional_engine.h"

namespace lightrw::distributed {
namespace {

using apps::StaticWalkApp;
using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/4);
}

class PartitionStrategyTest
    : public ::testing::TestWithParam<PartitionStrategy> {};

TEST_P(PartitionStrategyTest, CoversAllVerticesWithValidOwners) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  EXPECT_EQ(p.num_boards(), 4);
  EXPECT_EQ(p.owners().size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(p.OwnerOf(v), 4);
  }
}

TEST_P(PartitionStrategyTest, ReasonableEdgeBalance) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  // No board should hold more than 2x its fair share of edges.
  EXPECT_LT(p.EdgeImbalance(g), 2.0);
}

TEST_P(PartitionStrategyTest, CutRatioInUnitInterval) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 4, GetParam());
  const double cut = p.CutRatio(g);
  EXPECT_GE(cut, 0.0);
  EXPECT_LE(cut, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, PartitionStrategyTest,
                         ::testing::Values(PartitionStrategy::kHash,
                                           PartitionStrategy::kRange,
                                           PartitionStrategy::kGreedy),
                         [](const auto& info) {
                           switch (info.param) {
                             case PartitionStrategy::kHash:
                               return "hash";
                             case PartitionStrategy::kRange:
                               return "range";
                             case PartitionStrategy::kGreedy:
                               return "greedy";
                           }
                           return "unknown";
                         });

TEST(PartitionTest, SingleBoardHasNoCut) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 1, PartitionStrategy::kHash);
  EXPECT_DOUBLE_EQ(p.CutRatio(g), 0.0);
  EXPECT_DOUBLE_EQ(p.EdgeImbalance(g), 1.0);
}

TEST(PartitionTest, GreedyCutsLessThanHash) {
  // The whole point of the greedy partitioner: exploiting structure cuts
  // fewer edges than an oblivious hash.
  const CsrGraph g = TestGraph();
  const Partition hash = MakePartition(g, 4, PartitionStrategy::kHash);
  const Partition greedy = MakePartition(g, 4, PartitionStrategy::kGreedy);
  EXPECT_LT(greedy.CutRatio(g), hash.CutRatio(g));
}

TEST(PartitionTest, EdgeCountsSumToTotal) {
  const CsrGraph g = TestGraph();
  const Partition p = MakePartition(g, 8, PartitionStrategy::kRange);
  const auto counts = p.EdgeCounts(g);
  uint64_t total = 0;
  for (const uint64_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, g.num_edges());
}

DistributedConfig TestConfig() {
  DistributedConfig config;
  config.board.num_instances = 1;
  config.board.seed = 13;
  return config;
}

// One test per rejected field: the validator must name the offending
// field so CLI users can fix their flags.
TEST(DistributedConfigValidationTest, AcceptsDefaults) {
  EXPECT_TRUE(ValidateDistributedConfig(DistributedConfig()).ok());
}

TEST(DistributedConfigValidationTest, RejectsZeroWalkerMessageBytes) {
  DistributedConfig config;
  config.walker_message_bytes = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("walker_message_bytes"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroInflightWalkersPerBoard) {
  DistributedConfig config;
  config.inflight_walkers_per_board = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("inflight_walkers_per_board"),
            std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroSamplerParallelism) {
  DistributedConfig config;
  config.board.sampler_parallelism = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sampler_parallelism"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsZeroBoardInstances) {
  DistributedConfig config;
  config.board.num_instances = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_instances"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsBadNestedDramConfig) {
  DistributedConfig config;
  config.board.dram.bus_bytes = 0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bus_bytes"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsBadNestedLinkConfig) {
  DistributedConfig config;
  config.link.bytes_per_cycle = 0.0;
  const Status status = ValidateDistributedConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("bytes_per_cycle"), std::string::npos);
}

TEST(DistributedConfigValidationTest, RejectsNonFiniteRebuildBandwidth) {
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    DistributedConfig config;
    config.num_spare_boards = 1;
    config.rebuild_bytes_per_cycle = rate;
    const Status status = ValidateDistributedConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << rate;
    EXPECT_NE(status.message().find("rebuild_bytes_per_cycle"),
              std::string::npos);
  }
}

// A spare that would need 2^47 cycles or more to copy its share is
// rejected before the run, in both graph modes; 1e-3 B/cycle still runs.
TEST(DistributedEngineTest, RejectsRebuildOfTwoToTheFortySevenCycles) {
  graph::RmatOptions rmat;
  rmat.scale = 8;
  const CsrGraph g = graph::GenerateRmat(rmat);
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 64);
  for (const bool replicate : {false, true}) {
    DistributedConfig config = TestConfig();
    config.replicate_graph = replicate;
    config.num_spare_boards = 1;
    config.board.faults.enabled = true;
    config.board.faults.board_deaths = {{100, /*board=*/0}};
    config.rebuild_bytes_per_cycle = 1e-30;
    const auto rejected = DistributedEngine(&g, &app, &p, config).Run(queries);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(rejected.status().message().find("rebuild_bytes_per_cycle"),
              std::string::npos);
    config.rebuild_bytes_per_cycle = 1e-3;
    const auto slow = DistributedEngine(&g, &app, &p, config).Run(queries);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(slow->reliability.rebuilds_completed, 1u);
    EXPECT_GT(slow->reliability.rebuild_cycles, 1000000u);
  }
}

TEST(DistributedEngineTest, RunsAllQueriesWithValidWalks) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  baseline::WalkOutput output;
  const auto stats = engine.Run(queries, &output).value();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.cycles, 0u);
  ASSERT_EQ(output.num_paths(), queries.size());
  for (size_t i = 0; i < output.num_paths(); ++i) {
    const auto path = output.Path(i);
    EXPECT_EQ(path[0], queries[i].start);
    for (size_t s = 1; s < path.size(); ++s) {
      EXPECT_TRUE(g.HasEdge(path[s - 1], path[s]));
    }
  }
}

TEST(DistributedEngineTest, MigrationsTrackCutRatio) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  const auto stats = engine.Run(queries).value();
  EXPECT_GT(stats.migrations, 0u);
  // Migration ratio should be in the neighborhood of the edge cut ratio
  // (walks sample edges roughly like the cut measures them).
  EXPECT_NEAR(stats.MigrationRatio(), p.CutRatio(g), 0.25);
  EXPECT_EQ(stats.network.messages, stats.migrations);
}

TEST(DistributedEngineTest, SingleBoardNeverMigrates) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 1, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 200);
  const auto stats = engine.Run(queries).value();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.network.messages, 0u);
}

TEST(DistributedEngineTest, MoreBoardsIncreaseThroughput) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 2000);
  const Partition one = MakePartition(g, 1, PartitionStrategy::kGreedy);
  const Partition four = MakePartition(g, 4, PartitionStrategy::kGreedy);
  const auto stats_one =
      DistributedEngine(&g, &app, &one, TestConfig()).Run(queries).value();
  const auto stats_four =
      DistributedEngine(&g, &app, &four, TestConfig()).Run(queries).value();
  EXPECT_GT(stats_four.StepsPerSecond(), stats_one.StepsPerSecond());
}

TEST(DistributedEngineTest, GreedyPartitionBeatsHashOnTime) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 2000);
  const Partition hash = MakePartition(g, 8, PartitionStrategy::kHash);
  const Partition greedy = MakePartition(g, 8, PartitionStrategy::kGreedy);
  const auto stats_hash =
      DistributedEngine(&g, &app, &hash, TestConfig()).Run(queries).value();
  const auto stats_greedy =
      DistributedEngine(&g, &app, &greedy, TestConfig()).Run(queries).value();
  EXPECT_LT(stats_greedy.migrations, stats_hash.migrations);
}

TEST(DistributedEngineTest, DeterministicPerSeed) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 2, PartitionStrategy::kRange);
  const auto queries = apps::MakeVertexQueries(g, 6, 3, 200);
  const auto a =
      DistributedEngine(&g, &app, &p, TestConfig()).Run(queries).value();
  const auto b =
      DistributedEngine(&g, &app, &p, TestConfig()).Run(queries).value();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(DistributedEngineTest, PprStopsEarly) {
  const CsrGraph g = TestGraph();
  apps::PprApp app(0.3);
  const Partition p = MakePartition(g, 2, PartitionStrategy::kHash);
  DistributedEngine engine(&g, &app, &p, TestConfig());
  const std::vector<WalkQuery> queries(2000, WalkQuery{0, 200});
  const auto stats = engine.Run(queries).value();
  const double avg_steps =
      static_cast<double>(stats.steps) / static_cast<double>(stats.queries);
  EXPECT_LT(avg_steps, 10.0);  // geometric with alpha=0.3 -> ~3.3
}

TEST(DistributedEngineTest, ReplicatedModeNeverMigrates) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kHash);
  DistributedConfig config = TestConfig();
  config.replicate_graph = true;
  DistributedEngine engine(&g, &app, &p, config);
  const auto queries = apps::MakeVertexQueries(g, 10, 3, 500);
  const auto stats = engine.Run(queries).value();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.per_board_graph_bytes, g.ModeledByteSize());
}

TEST(DistributedEngineTest, PartitionedModeNeedsLessMemoryPerBoard) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const Partition p = MakePartition(g, 4, PartitionStrategy::kGreedy);
  DistributedConfig partitioned = TestConfig();
  DistributedConfig replicated = TestConfig();
  replicated.replicate_graph = true;
  const auto queries = apps::MakeVertexQueries(g, 8, 3, 300);
  const auto part_stats =
      DistributedEngine(&g, &app, &p, partitioned).Run(queries).value();
  const auto repl_stats =
      DistributedEngine(&g, &app, &p, replicated).Run(queries).value();
  EXPECT_LT(part_stats.per_board_graph_bytes,
            repl_stats.per_board_graph_bytes);
  // Replication avoids the network, so it is at least as fast.
  EXPECT_LE(repl_stats.cycles, part_stats.cycles * 11 / 10);
}

// Every engine that shares a walk delivers one corpus: a path is a
// function of (seed, ticket, query), so FunctionalEngine's untimed pass
// writes what DistributedEngine's timed boards write, whatever the
// partition, the replication or the host thread count.
enum class ContractApp { kDeepWalk, kNode2Vec, kMetaPath, kPpr };

std::unique_ptr<apps::WalkApp> MakeContractApp(ContractApp kind,
                                               const CsrGraph& g) {
  switch (kind) {
    case ContractApp::kDeepWalk:
      return std::make_unique<StaticWalkApp>();
    case ContractApp::kNode2Vec:
      return std::make_unique<apps::Node2VecApp>(2.0, 0.5);
    case ContractApp::kMetaPath:
      return std::make_unique<apps::MetaPathApp>(
          apps::MakeRandomRelationPath(g, 12, /*seed=*/9));
    case ContractApp::kPpr:
      return std::make_unique<apps::PprApp>(0.15);
  }
  return nullptr;
}

class EngineCorpusContractTest
    : public ::testing::TestWithParam<ContractApp> {};

TEST_P(EngineCorpusContractTest, FunctionalEngineWritesTheClusterCorpus) {
  const CsrGraph g = TestGraph();
  const std::unique_ptr<apps::WalkApp> app = MakeContractApp(GetParam(), g);
  const auto queries = apps::MakeVertexQueries(g, 12, 5, 400);
  auto functional = [&](uint32_t threads, baseline::WalkOutput* out) {
    core::AcceleratorConfig board = TestConfig().board;
    board.num_threads = threads;
    return core::FunctionalEngine(&g, app.get(), board).Run(queries, out);
  };
  baseline::WalkOutput want;
  const core::FunctionalRunStats stats = functional(1, &want);
  ASSERT_EQ(want.num_paths(), queries.size());
  EXPECT_EQ(stats.queries, queries.size());

  baseline::WalkOutput four;
  const core::FunctionalRunStats stats4 = functional(4, &four);
  EXPECT_EQ(four.offsets, want.offsets);
  EXPECT_EQ(four.vertices, want.vertices);
  EXPECT_EQ(stats4.steps, stats.steps);
  EXPECT_EQ(stats4.edges_examined, stats.edges_examined);

  // Without stop coins, a walk that ends short of its length tried one
  // more step from its last vertex (a dead end or all-zero weights).
  if (app->stop_probability() == 0.0) {
    uint64_t edges = 0;
    for (size_t i = 0; i < want.num_paths(); ++i) {
      const auto path = want.Path(i);
      const size_t tried =
          path.size() - 1 < queries[i].length ? path.size() : path.size() - 1;
      for (size_t s = 0; s < tried; ++s) {
        edges += g.Degree(path[s]);
      }
    }
    EXPECT_EQ(stats.edges_examined, edges);
  }

  struct Cluster {
    const char* name;
    PartitionStrategy strategy;
    bool replicate;
  };
  for (const Cluster& cluster :
       {Cluster{"hash", PartitionStrategy::kHash, false},
        Cluster{"range", PartitionStrategy::kRange, false},
        Cluster{"greedy", PartitionStrategy::kGreedy, false},
        Cluster{"replicated", PartitionStrategy::kHash, true}}) {
    const Partition p = MakePartition(g, 4, cluster.strategy);
    for (const uint32_t threads : {1u, 4u}) {
      DistributedConfig config = TestConfig();
      config.replicate_graph = cluster.replicate;
      config.num_threads = threads;
      baseline::WalkOutput got;
      const auto run =
          DistributedEngine(&g, app.get(), &p, config).Run(queries, &got);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(got.offsets, want.offsets)
          << cluster.name << ", " << threads << " thread(s)";
      EXPECT_EQ(got.vertices, want.vertices)
          << cluster.name << ", " << threads << " thread(s)";
      EXPECT_EQ(run->steps, stats.steps)
          << cluster.name << ", " << threads << " thread(s)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, EngineCorpusContractTest,
                         ::testing::Values(ContractApp::kDeepWalk,
                                           ContractApp::kNode2Vec,
                                           ContractApp::kMetaPath,
                                           ContractApp::kPpr),
                         [](const auto& info) {
                           switch (info.param) {
                             case ContractApp::kDeepWalk:
                               return "deepwalk";
                             case ContractApp::kNode2Vec:
                               return "node2vec";
                             case ContractApp::kMetaPath:
                               return "metapath";
                             case ContractApp::kPpr:
                               return "ppr";
                           }
                           return "unknown";
                         });

TEST(NetworkLinkTest, SerializesAndDelays) {
  hwsim::LinkConfig config;
  config.bytes_per_cycle = 32.0;
  config.latency_cycles = 100;
  config.header_bytes = 32;
  hwsim::NetworkLink link(config);
  // 32B payload + 32B header at 32 B/cycle = 2 cycles wire time.
  const auto first = link.Send(0, 32);
  EXPECT_EQ(first, 2u + 100);
  const auto second = link.Send(0, 32);  // queues behind the first
  EXPECT_EQ(second, 4u + 100);
  EXPECT_EQ(link.stats().messages, 2u);
  EXPECT_EQ(link.stats().payload_bytes, 64u);
}

}  // namespace
}  // namespace lightrw::distributed
