// Cluster membership view for the self-healing distributed simulation.
//
// Every physical board (partition owners and hot spares alike) is in
// exactly one membership state, and every state change bumps a cluster
// epoch by exactly one. The transition log is the authoritative record
// of what the cluster looked like at any simulated cycle: ClusterSim
// appends to it deterministically from the event loop, threads it into
// trace instants and ReliabilityStats, and exports it through
// DistributedRunStats so tools (walk_tool --exports spans, the chaos
// harness, scripts/check_span_json.py) can machine-check it.
//
// State machine:
//
//     kAlive ────death────> kDead            (originals start kAlive)
//     kSpare ──activation──> kRebuilding     (spares start kSpare)
//     kSpare ────death────> kDead            (idle spare lost)
//     kRebuilding ──done──> kAlive           (ownership transfers)
//     kRebuilding ──death─> kDead            (death during rebuild)
//
// kDead is terminal: a dead board never returns; its partition share is
// re-served by a rebuilt spare or, with the spare pool exhausted, by the
// surviving boards in degraded mode.

#ifndef LIGHTRW_RELIABILITY_MEMBERSHIP_H_
#define LIGHTRW_RELIABILITY_MEMBERSHIP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace lightrw::reliability {

// Lifecycle state of one physical board in the membership view.
enum class BoardState : uint8_t {
  kAlive = 0,       // serving its partition share
  kDead = 1,        // permanently failed (terminal)
  kRebuilding = 2,  // activated spare copying a dead board's share
  kSpare = 3,       // idle hot spare, not yet activated
};

// Stable lowercase name ("alive" / "dead" / "rebuilding" / "spare"),
// used in the JSON export and trace labels.
const char* BoardStateName(BoardState state);

// One membership transition. Epochs start at 1 and increase by exactly
// one per transition, so the log doubles as a monotonic cluster clock:
// any two runs that agree on the log agree on the failure history.
struct MembershipTransition {
  uint64_t epoch = 0;
  uint64_t cycle = 0;  // simulated cycle of the transition
  uint32_t board = 0;  // global board id (see DistributedConfig::first_board)
  BoardState from = BoardState::kAlive;
  BoardState to = BoardState::kAlive;

  bool operator==(const MembershipTransition& other) const {
    return epoch == other.epoch && cycle == other.cycle &&
           board == other.board && from == other.from && to == other.to;
  }
};

// Machine-checked invariants of a membership log: epochs start at 1 and
// increase by exactly 1, cycles never regress, states actually change,
// and every edge is legal in the state machine above. Non-OK names the
// first violating entry.
Status CheckMembershipLog(const std::vector<MembershipTransition>& log);

// JSON export: an array of {epoch, cycle, board, from, to} objects in
// log order (the "membership" section of walk_tool's spans.json, checked
// by scripts/check_span_json.py).
obs::Json MembershipToJson(const std::vector<MembershipTransition>& log);

}  // namespace lightrw::reliability

#endif  // LIGHTRW_RELIABILITY_MEMBERSHIP_H_
