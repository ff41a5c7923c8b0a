// Law oracle for weighted walk paths: the transitions of fault-free
// CycleEngine, partitioned DistributedEngine and WalkService runs must
// follow the exact step law of Eq. 1 (MetaPath) and Eq. 2 (Node2Vec),
// computed here from the equations, not from the apps' code.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/builder.h"
#include "lightrw/cycle_engine.h"
#include "rng/stat_tests.h"
#include "service/walk_service.h"

namespace lightrw {
namespace {

using apps::MetaPathApp;
using apps::Node2VecApp;
using apps::WalkApp;
using apps::WalkQuery;
using baseline::WalkOutput;
using graph::CsrGraph;
using graph::Relation;
using graph::VertexId;

// p and q make 256/p and 256/q exact, so Node2VecApp's fixed-point
// weights are exactly proportional to Eq. 2's real ones.
constexpr double kP = 2.0;
constexpr double kQ = 0.5;
constexpr uint32_t kWalkLength = 12;

// Three hubs whose rows (71, 77 and 86 edges) exceed 64 edges, so a row
// spans several k-lane batches and its last batch ends inside a register
// of 8 lanes, on 160 vertices whose leaves also form a ring (triangles
// give Node2Vec common neighbours). Weights 1-5 and relations 0-2 vary
// by edge.
CsrGraph HubGraph() {
  constexpr VertexId kVertices = 160;
  graph::GraphBuilder builder(kVertices, /*undirected=*/true);
  const auto add = [&](VertexId u, VertexId v) {
    builder.AddEdge(u, v, 1 + (7 * u + 3 * v) % 5,
                    static_cast<Relation>((u + v) % 3));
  };
  add(0, 1);
  add(0, 2);
  add(1, 2);
  for (VertexId v = 3; v < 72; ++v) {
    add(0, v);
  }
  for (VertexId v = 40; v < 115; ++v) {
    add(1, v);
  }
  for (VertexId v = 76; v < 160; ++v) {
    add(2, v);
  }
  for (VertexId v = 3; v + 1 < kVertices; ++v) {
    add(v, v + 1);
  }
  return std::move(builder).Build();
}

std::vector<Relation> RelationPath() {
  std::vector<Relation> path(kWalkLength);
  for (uint32_t t = 0; t < kWalkLength; ++t) {
    path[t] = static_cast<Relation>(t % 3);
  }
  return path;
}

// Unnormalised probability of each edge of N(curr) at step `step`
// after `prev` (graph::kInvalidVertex on the first step).
using Law = std::vector<double> (*)(const CsrGraph& g, uint32_t step,
                                    VertexId prev, VertexId curr);

// Eq. 1: the static weight where the edge's relation is the step's
// entry of the relation path, 0 elsewhere.
std::vector<double> MetaPathLaw(const CsrGraph& g, uint32_t step,
                                VertexId /*prev*/, VertexId curr) {
  static const std::vector<Relation> path = RelationPath();
  std::vector<double> law(g.Degree(curr), 0.0);
  for (size_t i = 0; i < law.size(); ++i) {
    if (step < path.size() && g.NeighborRelations(curr)[i] == path[step]) {
      law[i] = g.NeighborWeights(curr)[i];
    }
  }
  return law;
}

// Eq. 2: w/p back to prev, w to a neighbour of prev, w/q elsewhere; the
// first step has no prev and takes the static weight.
std::vector<double> Node2VecLaw(const CsrGraph& g, uint32_t /*step*/,
                                VertexId prev, VertexId curr) {
  std::vector<double> law(g.Degree(curr));
  for (size_t i = 0; i < law.size(); ++i) {
    const VertexId dst = g.Neighbors(curr)[i];
    const double w = g.NeighborWeights(curr)[i];
    if (prev == graph::kInvalidVertex) {
      law[i] = w;
    } else if (dst == prev) {
      law[i] = w / kP;
    } else {
      law[i] = g.HasEdge(prev, dst) ? w : w / kQ;
    }
  }
  return law;
}

// Steps whose laws over N(curr) are identical, as one multinomial table.
struct Context {
  std::vector<double> probability;  // per edge, normalised
  std::vector<uint64_t> taken;      // steps that took each edge
  uint64_t steps = 0;
};

struct LawFit {
  double statistic = 0.0;
  double degrees_of_freedom = 0.0;
  double p_value = 1.0;
  uint64_t steps = 0;
};

// Chi-square of every step in `out` against `law`. A step's context is
// its law over N(curr): steps pool exactly when their laws are equal
// (the same curr after the same prev or relation, or rows with equal
// weights), so the pooled counts stay multinomial. Within a context,
// adjacent edges merge until each bin expects at least 5 steps, and the
// tail joins the last bin; a context with one bin carries no test. The
// statistic sums over contexts, so it has one degree of freedom per bin
// less one per context. An edge of probability 0 must never be taken.
LawFit CheckLaw(const CsrGraph& g, const WalkOutput& out, Law law) {
  std::map<std::vector<double>, Context> contexts;
  LawFit fit;
  for (size_t p = 0; p < out.num_paths(); ++p) {
    const auto path = out.Path(p);
    for (size_t s = 0; s + 1 < path.size(); ++s) {
      const VertexId prev = s == 0 ? graph::kInvalidVertex : path[s - 1];
      const VertexId curr = path[s];
      std::vector<double> probability =
          law(g, static_cast<uint32_t>(s), prev, curr);
      const double total =
          std::accumulate(probability.begin(), probability.end(), 0.0);
      for (double& x : probability) {
        x /= total;
      }
      const auto row = g.Neighbors(curr);
      const size_t taken = static_cast<size_t>(
          std::find(row.begin(), row.end(), path[s + 1]) - row.begin());
      EXPECT_LT(taken, row.size()) << curr << "->" << path[s + 1];
      if (taken == row.size()) {
        continue;
      }
      EXPECT_GT(probability[taken], 0.0)
          << "step " << s << " took " << curr << "->" << path[s + 1];
      Context& c = contexts[probability];
      if (c.steps == 0) {
        c.probability = probability;
        c.taken.assign(row.size(), 0);
      }
      ++c.taken[taken];
      ++c.steps;
      ++fit.steps;
    }
  }
  std::vector<uint64_t> observed;
  std::vector<double> expected;
  size_t tables = 0;
  for (const auto& [key, c] : contexts) {
    const size_t first_bin = observed.size();
    uint64_t o = 0;
    double e = 0.0;
    for (size_t i = 0; i < c.taken.size(); ++i) {
      o += c.taken[i];
      e += static_cast<double>(c.steps) * c.probability[i];
      if (e >= 5.0) {
        observed.push_back(o);
        expected.push_back(e);
        o = 0;
        e = 0.0;
      }
    }
    if (observed.size() - first_bin < 2) {
      observed.resize(first_bin);
      expected.resize(first_bin);
      continue;
    }
    observed.back() += o;
    expected.back() += e;
    ++tables;
  }
  if (tables == 0) {
    return fit;
  }
  fit.statistic = rng::ChiSquareTest(observed, expected).statistic;
  fit.degrees_of_freedom = static_cast<double>(observed.size() - tables);
  fit.p_value = rng::ChiSquareUpperTail(fit.statistic, fit.degrees_of_freedom);
  return fit;
}

struct AppCase {
  const char* name;
  const WalkApp* app;
  Law law;
};

class WalkLawTest : public ::testing::Test {
 protected:
  const CsrGraph graph_ = HubGraph();
  const MetaPathApp metapath_{RelationPath()};
  const Node2VecApp node2vec_{kP, kQ};
  const std::vector<AppCase> apps_ = {{"MetaPath", &metapath_, MetaPathLaw},
                                      {"Node2Vec", &node2vec_, Node2VecLaw}};

  // Twelve walks from every vertex.
  std::vector<WalkQuery> Queries() const {
    std::vector<WalkQuery> queries;
    for (int round = 0; round < 12; ++round) {
      for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        queries.push_back({v, kWalkLength});
      }
    }
    return queries;
  }

  void Expect(const AppCase& c, const WalkOutput& out) {
    const LawFit fit = CheckLaw(graph_, out, c.law);
    EXPECT_GT(fit.steps, 8000u) << c.name;
    EXPECT_GT(fit.degrees_of_freedom, 100.0) << c.name;
    EXPECT_GT(fit.p_value, 1e-4)
        << c.name << ": chi2 " << fit.statistic << " over "
        << fit.degrees_of_freedom << " df, " << fit.steps << " steps";
  }
};

TEST_F(WalkLawTest, CycleEngineFollowsEq1AndEq2) {
  core::AcceleratorConfig config;
  config.seed = 71;
  for (const AppCase& c : apps_) {
    WalkOutput out;
    core::CycleEngine(&graph_, c.app, config).Run(Queries(), &out);
    Expect(c, out);
  }
}

// k = 12 lanes: every batch also ends inside a register.
TEST_F(WalkLawTest, PartitionedDistributedEngineFollowsEq1AndEq2) {
  const distributed::Partition partition = distributed::MakePartition(
      graph_, 4, distributed::PartitionStrategy::kHash);
  distributed::DistributedConfig config;
  config.board.sampler_parallelism = 12;
  config.board.seed = 72;
  for (const AppCase& c : apps_) {
    WalkOutput out;
    ASSERT_TRUE(distributed::DistributedEngine(&graph_, c.app, &partition,
                                               config)
                    .Run(Queries(), &out)
                    .ok());
    Expect(c, out);
  }
}

// Load light enough that no query degrades to uniform steps, whose law
// is not Eq. 1 or Eq. 2.
TEST_F(WalkLawTest, WalkServiceFollowsEq1AndEq2) {
  const distributed::Partition partition = distributed::MakePartition(
      graph_, 4, distributed::PartitionStrategy::kHash);
  service::ServiceConfig config;
  config.cluster.board.seed = 73;
  config.arrivals.seed = 74;
  config.arrivals.num_queries = 1920;
  config.arrivals.walk_length = kWalkLength;
  config.arrivals.rate_per_kcycle = 0.5;
  for (const AppCase& c : apps_) {
    WalkOutput out;
    const auto stats =
        service::WalkService(&graph_, c.app, &partition, config).Run(&out);
    ASSERT_TRUE(stats.ok()) << c.name;
    ASSERT_EQ(stats->degraded, 0u) << c.name;
    ASSERT_EQ(stats->completed, stats->offered) << c.name;
    Expect(c, out);
  }
}

}  // namespace
}  // namespace lightrw
