// The chaos-campaign harness is itself a deterministic artifact: scenario
// configurations are a pure function of (seed, index), campaigns pass
// their own invariants on a healthy stack, and a report documents every
// verdict. These tests pin that contract on a small graph so the full
// 16-scenario CI campaign has a fast local counterpart.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "reliability/chaos.h"
#include "reliability/fault_injector.h"

namespace lightrw {
namespace {

using apps::StaticWalkApp;
using graph::CsrGraph;
using reliability::ChaosConfig;
using reliability::MakeChaosScenario;
using reliability::RunChaosCampaign;

CsrGraph TestGraph() {
  return graph::MakeDatasetStandIn(graph::Dataset::kLiveJournal,
                                   /*scale_shift=*/11, /*seed=*/4);
}

ChaosConfig SmallCampaign() {
  ChaosConfig config;
  config.seed = 11;
  config.num_scenarios = 9;  // one of each archetype
  config.num_boards = 4;
  config.num_queries = 96;
  config.walk_length = 10;
  return config;
}

TEST(ChaosConfigTest, ValidationRejectsDegenerateCampaigns) {
  ChaosConfig config = SmallCampaign();
  config.num_scenarios = 0;
  EXPECT_FALSE(reliability::ValidateChaosConfig(config).ok());
  config = SmallCampaign();
  config.num_boards = 1;  // no survivor possible
  EXPECT_FALSE(reliability::ValidateChaosConfig(config).ok());
  config = SmallCampaign();
  config.thread_counts.clear();
  EXPECT_FALSE(reliability::ValidateChaosConfig(config).ok());
  EXPECT_TRUE(reliability::ValidateChaosConfig(SmallCampaign()).ok());
}

TEST(ChaosScenarioTest, PureFunctionOfSeedAndIndex) {
  const ChaosConfig config = SmallCampaign();
  std::string name_a, name_b;
  const auto a = MakeChaosScenario(config, 3, &name_a);
  const auto b = MakeChaosScenario(config, 3, &name_b);
  EXPECT_EQ(name_a, name_b);
  EXPECT_EQ(a.board.seed, b.board.seed);
  EXPECT_EQ(a.board.faults.seed, b.board.faults.seed);
  EXPECT_EQ(a.num_spare_boards, b.num_spare_boards);
  ASSERT_EQ(a.board.faults.board_deaths.size(),
            b.board.faults.board_deaths.size());
  for (size_t i = 0; i < a.board.faults.board_deaths.size(); ++i) {
    EXPECT_EQ(a.board.faults.board_deaths[i].cycle,
              b.board.faults.board_deaths[i].cycle);
    EXPECT_EQ(a.board.faults.board_deaths[i].board,
              b.board.faults.board_deaths[i].board);
  }
  // A different campaign seed perturbs the scenario.
  ChaosConfig other = config;
  other.seed = 12;
  std::string name_c;
  const auto c = MakeChaosScenario(other, 3, &name_c);
  EXPECT_NE(a.board.faults.seed, c.board.faults.seed);
}

TEST(ChaosScenarioTest, NineConsecutiveIndicesCoverEveryArchetype) {
  const ChaosConfig config = SmallCampaign();
  std::set<std::string> archetypes;
  for (uint32_t i = 0; i < 9; ++i) {
    std::string name;
    MakeChaosScenario(config, i, &name);
    // Names look like "s03-spare-exhaustion-part-spares1"; the archetype
    // is the middle segment.
    const size_t start = name.find('-') + 1;
    const size_t end = name.find("-repl");
    archetypes.insert(name.substr(
        start, (end == std::string::npos ? name.find("-part") : end) - start));
  }
  EXPECT_EQ(archetypes.size(), 9u);
  EXPECT_TRUE(archetypes.count("torn-write"));
  EXPECT_TRUE(archetypes.count("bit-rot-storm"));
  EXPECT_TRUE(archetypes.count("all-owner-loss"));
}

TEST(ChaosScenarioTest, EveryScenarioPassesValidation) {
  const ChaosConfig config = SmallCampaign();
  for (uint32_t i = 0; i < 18; ++i) {
    const auto scenario = MakeChaosScenario(config, i, nullptr);
    EXPECT_TRUE(
        reliability::ValidateFaultConfig(scenario.board.faults).ok())
        << "scenario " << i;
  }
}

TEST(ChaosCampaignTest, HealthyStackPassesAllInvariants) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto campaign = RunChaosCampaign(g, app, SmallCampaign());
  ASSERT_TRUE(campaign.ok());
  for (const auto& scenario : campaign->scenarios) {
    EXPECT_TRUE(scenario.passed)
        << scenario.name << ": "
        << (scenario.violations.empty() ? "?" : scenario.violations[0]);
  }
  EXPECT_TRUE(campaign->Passed());
  EXPECT_EQ(campaign->failures, 0u);
  // The sampled span document parses and carries the membership section.
  const auto doc = obs::Json::Parse(campaign->sampled_span_json);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("membership"), nullptr);
  // The report round-trips through JSON with one row per scenario.
  const auto report = obs::Json::Parse(campaign->ToJson().Dump());
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->Find("scenarios"), nullptr);
}

// The path-identity invariant compares every path with a fault-free run
// of the same queries; these apps add weights that depend on the
// previous vertex (Node2Vec) and walks that end on stop coins (PPR).
TEST(ChaosCampaignTest, PathIdentityHoldsForNode2VecAndPpr) {
  const CsrGraph g = TestGraph();
  const apps::Node2VecApp node2vec(2.0, 0.5);
  const apps::PprApp ppr(0.15);
  for (const apps::WalkApp* app :
       std::initializer_list<const apps::WalkApp*>{&node2vec, &ppr}) {
    const auto campaign = RunChaosCampaign(g, *app, SmallCampaign());
    ASSERT_TRUE(campaign.ok());
    for (const auto& scenario : campaign->scenarios) {
      EXPECT_TRUE(scenario.passed)
          << app->name() << " " << scenario.name << ": "
          << (scenario.violations.empty() ? "?" : scenario.violations[0]);
    }
  }
}

// The storage archetypes must actually stress the durable store: writes
// flow, injected corruption lands, and the all-owner-loss scenario
// finishes whole — the exact restriction the store exists to lift.
TEST(ChaosCampaignTest, StorageArchetypesExerciseTheStore) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  const auto campaign = RunChaosCampaign(g, app, SmallCampaign());
  ASSERT_TRUE(campaign.ok());
  bool saw_owner_loss = false;
  for (const auto& scenario : campaign->scenarios) {
    const bool storage =
        scenario.name.find("torn-write") != std::string::npos ||
        scenario.name.find("bit-rot-storm") != std::string::npos ||
        scenario.name.find("all-owner-loss") != std::string::npos;
    if (!storage) {
      continue;
    }
    EXPECT_TRUE(scenario.passed)
        << scenario.name << ": "
        << (scenario.violations.empty() ? "?" : scenario.violations[0]);
    const reliability::ReliabilityStats& rel = scenario.stats.reliability;
    EXPECT_GT(rel.ckpt_store_writes, 0u) << scenario.name;
    EXPECT_EQ(rel.ckpt_silent_accepts, 0u) << scenario.name;
    if (scenario.name.find("all-owner-loss") != std::string::npos) {
      saw_owner_loss = true;
      EXPECT_EQ(rel.walkers_lost, 0u);
      EXPECT_GE(rel.rebuilds_completed, 1u);
      EXPECT_GE(rel.board_failures, 4u);  // every owner died
    }
  }
  EXPECT_TRUE(saw_owner_loss);
}

// The nightly campaign (walk_tool --chaos-scenarios 64 --chaos-seed 1
// --boards 4 --rmat_scale 11 --length 12 --queries 192). Its bit-rot
// storm without spares loses walkers that had already walked their whole
// path and waited only to retire at a dead end: their walks are
// complete, so neither the loss counters nor path identity may count
// them as failed.
TEST(ChaosCampaignTest, NightlyCampaignPassesEveryScenario) {
  graph::RmatOptions rmat;
  rmat.scale = 11;
  rmat.seed = 42;
  const CsrGraph g = graph::GenerateRmat(rmat);
  const apps::Node2VecApp app(2.0, 0.5);
  ChaosConfig config;
  config.seed = 1;
  config.num_scenarios = 64;
  config.num_boards = 4;
  config.num_queries = 192;
  config.walk_length = 12;
  const auto campaign = RunChaosCampaign(g, app, config);
  ASSERT_TRUE(campaign.ok());
  for (const auto& scenario : campaign->scenarios) {
    EXPECT_TRUE(scenario.passed)
        << scenario.name << ": "
        << (scenario.violations.empty() ? "?" : scenario.violations[0]);
  }
  EXPECT_EQ(campaign->failures, 0u);
}

TEST(ChaosCampaignTest, CampaignReportIsDeterministic) {
  const CsrGraph g = TestGraph();
  StaticWalkApp app;
  ChaosConfig config = SmallCampaign();
  config.num_scenarios = 2;
  const auto a = RunChaosCampaign(g, app, config);
  const auto b = RunChaosCampaign(g, app, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());
  EXPECT_EQ(a->sampled_span_json, b->sampled_span_json);
}

}  // namespace
}  // namespace lightrw
