// Deterministic chaos-campaign harness for the self-healing cluster.
//
// A campaign generates N seeded failure scenarios — single board deaths,
// cascades, death-during-rebuild, spare exhaustion, ECC storms, link
// loss, torn checkpoint writes, bit-rot storms, total owner loss — runs
// each through the distributed engine, and machine-checks the
// invariants the reliability stack promises:
//
//   conservation   every offered query retires with a path
//   no lost walks  checkpointing on => a walk is lost only when the
//                  durable store provably had no validating generation
//                  (walkers_lost <= ckpt_unrecoverable), and a loss is
//                  never silent (ReliabilityStatus must be non-OK)
//   storage ledger every injected storage corruption is detected or
//                  latent, never silently accepted:
//                  torn + rot == detected + latent + silent, silent == 0
//   owner loss     "all-owner-loss" scenarios (every owner killed, the
//                  spare rebuilds from the durable store) complete with
//                  walkers_lost == 0 and at least one finished rebuild
//   membership     the epoch log is monotone and every transition legal
//                  (reliability::CheckMembershipLog)
//   accounting     board_failures equals the scheduled distinct deaths
//   path identity  every path is a prefix of the scenario's path in a
//                  fault-free run of the same queries, and exactly
//                  walks_failed paths are strictly shorter than theirs
//   determinism    every configured thread count produces byte-identical
//                  walk corpora, stats fingerprints, and span JSON
//
// Scenario configurations are a pure function of (campaign seed, index),
// so a failing scenario reproduces exactly from its index alone — the
// harness is a property test with named counterexamples, not a fuzzer.

#ifndef LIGHTRW_RELIABILITY_CHAOS_H_
#define LIGHTRW_RELIABILITY_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "apps/walk_app.h"
#include "common/status.h"
#include "distributed/cluster_sim.h"
#include "graph/csr.h"
#include "obs/json.h"

namespace lightrw::reliability {

struct ChaosConfig {
  uint64_t seed = 1;
  uint32_t num_scenarios = 16;
  // Cluster shape every scenario runs on. Scenarios draw their spare
  // count from [0, max_spare_boards] (archetypes that need a spare
  // force at least one).
  distributed::BoardId num_boards = 4;
  uint32_t max_spare_boards = 2;
  // Workload per scenario.
  uint32_t num_queries = 256;
  uint32_t walk_length = 16;
  // Host thread counts the determinism invariant compares across.
  std::vector<uint32_t> thread_counts = {1, 4};
};

Status ValidateChaosConfig(const ChaosConfig& config);

// Scenario `index`'s distributed configuration, derived deterministically
// from (config.seed, index). `name` (optional) receives a short
// human-readable label, e.g. "s03-spare-exhaustion".
distributed::DistributedConfig MakeChaosScenario(const ChaosConfig& config,
                                                 uint32_t index,
                                                 std::string* name);

struct ChaosScenarioResult {
  uint32_t index = 0;
  std::string name;
  bool passed = false;
  // One line per violated invariant; empty iff passed.
  std::vector<std::string> violations;
  // Stats of the scenario's first-thread-count run.
  distributed::DistributedRunStats stats;
};

struct ChaosCampaignResult {
  std::vector<ChaosScenarioResult> scenarios;
  uint32_t failures = 0;
  bool Passed() const { return failures == 0; }
  // Scenario 0's span-JSON document (spans + membership section) at the
  // first thread count — what CI feeds to check_span_json.py.
  std::string sampled_span_json;
  // Campaign report: per-scenario verdicts, violations, and counters.
  obs::Json ToJson() const;
};

// Runs the whole campaign. Non-OK only on configuration errors; invariant
// violations are reported per scenario in the result (a violation is a
// finding, not a harness failure).
StatusOr<ChaosCampaignResult> RunChaosCampaign(const graph::CsrGraph& graph,
                                               const apps::WalkApp& app,
                                               const ChaosConfig& config);

}  // namespace lightrw::reliability

#endif  // LIGHTRW_RELIABILITY_CHAOS_H_
