// Event-driven execution core of the distributed LightRW simulation.
//
// ClusterSim owns the per-board datapaths and the global discrete-event
// loop that interleaves walkers across boards in simulated-cycle order.
// Each board is one accelerator instance on one DRAM channel: the
// core::BoardStepModel that CycleEngine instances also drive (row cache,
// dynamic burst engine, k-lane WRS timing), plus an egress link and
// fault streams. Two drivers sit on top of it:
//
//   DistributedEngine::Run  the closed batch workload (load a query set,
//                           keep every walker slot busy until done)
//   service::WalkService    the open-loop front end (admission queues,
//                           deadlines, retries, degradation)
//
// The driver injects walkers with Launch() and receives them back through
// the retire callback; ScheduleWake() lets it interleave its own control
// events (arrivals, retry timers) with walker events on the same
// simulated clock. Drain() is resumable: callbacks may launch further
// work, and more may be injected between drains.
//
// Determinism: walk sampling and geometric stopping draw from per-walker
// RNG streams seeded by (config seed, ticket), so a walker's path is a
// pure function of its ticket — independent of dispatch order, board
// placement, and the timing interleaving. That is what lets the service
// layer retry a bounced query on another board (or replay it after a
// board death) and obtain the same walk, and what makes a low-load
// service run produce bit-identical walks to a batch run.

#ifndef LIGHTRW_DISTRIBUTED_CLUSTER_SIM_H_
#define LIGHTRW_DISTRIBUTED_CLUSTER_SIM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/walk_app.h"
#include "common/status.h"
#include "distributed/partition.h"
#include "graph/csr.h"
#include "hwsim/link.h"
#include "lightrw/config.h"
#include "lightrw/step_model.h"
#include "lightrw/step_sampler.h"
#include "reliability/fault_injector.h"
#include "reliability/membership.h"
#include "rng/rng.h"

namespace lightrw::reliability {
class CkptStore;
}  // namespace lightrw::reliability

namespace lightrw::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace lightrw::obs

namespace lightrw::distributed {

struct DistributedConfig {
  // Per-board accelerator configuration. Each board models a single
  // instance on one DRAM channel, so board.num_instances is not read.
  core::AcceleratorConfig board;
  hwsim::LinkConfig link;
  // Bytes of one walker-migration message (query id, current/previous
  // vertex, step counter, residual length).
  uint32_t walker_message_bytes = 32;
  // Walkers resident per board before queueing.
  uint32_t inflight_walkers_per_board = 64;
  // Replicate the whole graph on every board (the single-board LightRW
  // multi-instance design): walkers never migrate, but each board must
  // hold the full CSR image. Partitioned mode (false) scales to graphs
  // larger than one board's DRAM at the cost of network migrations.
  bool replicate_graph = false;

  // Hot spares: idle boards that activate on a permanent board death,
  // rebuild the dead board's partition share, and take over its
  // identity (migrations and launches aimed at the dead board route to
  // the rebuilt spare). Spares are only instantiated when the fault
  // schedule contains a board death, so fault-free runs are unchanged.
  uint32_t num_spare_boards = 0;
  // Partition-rebuild bandwidth in bytes per simulated cycle: the rate
  // at which an activated spare re-materializes the dead board's share
  // (host-PCIe staging ~32 B/cycle at 300 MHz ~ 9.6 GB/s; set to the
  // peer-link bandwidth to model peer-to-peer rebuild instead). The
  // rebuild takes ceil(share_bytes / rebuild_bytes_per_cycle) cycles on
  // top of the failure-detection latency.
  double rebuild_bytes_per_cycle = 32.0;

  // Host worker threads for drivers that decompose the cluster into
  // independent board shards (DistributedEngine in replicated mode
  // without faults, WalkService admission shards). The decomposition is
  // fixed by the configuration, never by the thread count, so results
  // are bit-identical for every value. 0 = SimThreadPool default.
  uint32_t num_threads = 0;

  // Global id of this sim's board 0. Sharded drivers simulate a slice of
  // a larger cluster per ClusterSim; the offset keeps fault-stream
  // seeds, trace pids, and metric labels aligned with the board's global
  // identity so a sharded run reports exactly like an unsharded one.
  BoardId first_board = 0;

  // Fault injection (DRAM ECC, link loss, board failure) and the
  // checkpoint/failover protocol are configured through `board.faults`
  // (reliability::FaultConfig), shared with the per-board accelerator
  // datapath so one schedule covers the whole stack.
};

struct DistributedRunStats {
  uint64_t cycles = 0;   // makespan over all boards
  double seconds = 0.0;
  // Modeled DRAM bytes each board must hold (full image when replicated,
  // the largest partition share otherwise).
  uint64_t per_board_graph_bytes = 0;
  uint64_t queries = 0;
  uint64_t steps = 0;
  uint64_t migrations = 0;  // walker hops between boards
  double MigrationRatio() const {
    return steps == 0 ? 0.0
                      : static_cast<double>(migrations) /
                            static_cast<double>(steps);
  }
  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
  // Summed over boards.
  hwsim::DramStats dram;
  hwsim::LinkStats network;
  // Faults injected, retries, retransmissions, checkpoints, and
  // recovered/lost walkers, summed over boards plus the failover logic.
  reliability::ReliabilityStats reliability;
  // Cluster membership log: every board state transition (death, spare
  // activation, rebuild completion) in epoch order. Empty when no board
  // death is scheduled. See reliability/membership.h for the invariants
  // (CheckMembershipLog) tests assert on.
  std::vector<reliability::MembershipTransition> membership;

  // Folds a board shard's run into this total: counters sum, the
  // makespan and per-board image size max. Callers recompute `seconds`
  // from the merged cycle count. Shards must be folded in a fixed order
  // so merged results are independent of execution interleaving.
  void Accumulate(const DistributedRunStats& part);
};

// Per-attempt execution options — the service layer's degradation knobs.
// The defaults execute the query exactly as requested.
struct WalkerOptions {
  // Caps the walk at this many steps (0 = the query's requested length).
  uint32_t max_steps = 0;
  // Degrades weighted (PWRS) stepping to a uniform neighbor choice: the
  // sampler consumes one cycle instead of ceil(degree / k), and Node2Vec
  // walks skip the previous-vertex adjacency fetch. Best-effort quality
  // under overload at a fraction of the per-step cost.
  bool uniform_step = false;
  // Parent span id for the attempt's "walk" span (0 = trace root). Set
  // by the service layer so per-attempt execution spans nest under the
  // query's root span; ignored unless config.board.spans is set.
  uint64_t parent_span = 0;
};

// Terminal state of one walker attempt, handed to the retire callback.
struct WalkerEnd {
  uint64_t ticket = 0;      // caller's id from Launch()
  hwsim::Cycle at = 0;      // retire cycle
  uint32_t steps = 0;       // steps actually taken
  BoardId board = 0;        // board charged for the walker (Launch board)
  // Surfaced failures (surface_failures mode only; the batch driver
  // recovers internally from checkpoints instead).
  bool board_lost = false;  // board died / migration undeliverable
  bool data_fault = false;  // uncorrectable ECC truncated the walk
  bool Failed() const { return board_lost || data_fault; }
};

// Non-OK when the configured fault schedule cannot be satisfied on a
// cluster of `num_boards` boards (a death targets a board outside the
// partition-owner + spare id range, or the schedule kills every
// partition owner, leaving no survivor to recover onto). Without the
// durable checkpoint store, spares do not relax the survivor bound: a
// death can land before any rebuild finishes, and a rebuild needs a
// live owner to copy from. With the store enabled
// (faults.ckpt_store.enabled), a spare rebuilds the share from the
// store instead, so all-owner-death schedules become legal as long as
// at least one board (owner or spare) outlives the whole schedule —
// walkers caught with no survivor park until that rebuild completes.
Status CheckFailoverSatisfiable(const DistributedConfig& config,
                                BoardId num_boards);

class ClusterSim {
 public:
  using RetireFn = std::function<void(const WalkerEnd& end,
                                      std::vector<graph::VertexId>&& path)>;
  using WakeFn = std::function<void(uint64_t tag, hwsim::Cycle at)>;

  // All referenced objects must outlive the sim. `max_walkers` bounds the
  // number of concurrently in-flight walkers (Launch checks it); the
  // configuration must already have passed ValidateDistributedConfig and
  // CheckFailoverSatisfiable.
  ClusterSim(const graph::CsrGraph* graph, const apps::WalkApp* app,
             const Partition* partition, const DistributedConfig& config,
             uint32_t max_walkers);
  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  void set_on_retire(RetireFn fn) { on_retire_ = std::move(fn); }
  void set_on_wake(WakeFn fn) { on_wake_ = std::move(fn); }
  // Service mode: a walker caught by a board death, an undeliverable
  // migration, or an uncorrectable data fault retires immediately with
  // the failure surfaced in WalkerEnd (the caller owns the retry/shed
  // decision) instead of being recovered internally from its checkpoint.
  void set_surface_failures(bool v) { surface_failures_ = v; }

  BoardId num_boards() const;
  // Physical boards instantiated: the partition owners plus hot spares
  // (spares exist only when the fault schedule contains a board death).
  BoardId total_boards() const;
  // Global identity of local board `b` (see DistributedConfig::
  // first_board): what fault seeds, trace pids, and metric labels use.
  BoardId GlobalBoard(BoardId b) const {
    return static_cast<BoardId>(config_.first_board + b);
  }
  // Membership state of board `b` as of the last processed event.
  // Original boards start alive, spares start spare; the only exit from
  // alive is a scheduled death (see reliability/membership.h).
  reliability::BoardState StateOf(BoardId b) const { return state_[b]; }
  bool IsAlive(BoardId b) const {
    return state_[b] == reliability::BoardState::kAlive;
  }
  // Board currently serving partition share `v`'s owner: the owner
  // itself while alive, the rebuilt spare after an ownership transfer,
  // or a deterministic survivor while the share has no serving board
  // (mid-rebuild or spare pool exhausted).
  BoardId LiveOwnerOf(graph::VertexId v) const;
  // Deterministic choice among alive serving boards for re-routing
  // dead-board load. Requires has_survivor(); without the durable
  // checkpoint store CheckFailoverSatisfiable guarantees it, with the
  // store a total blackout window can empty the survivor set (callers
  // must check and defer routing until a rebuild completes).
  BoardId SurvivorOf(uint64_t salt) const;
  // False only during a total-owner-loss window (every serving board
  // dead, no rebuild finished yet) — reachable only with the durable
  // checkpoint store enabled.
  bool has_survivor() const { return !survivors_.empty(); }
  // Monotone cluster membership epoch: bumps by exactly one on every
  // board state transition. 0 until the first transition.
  uint64_t membership_epoch() const { return epoch_; }
  const std::vector<reliability::MembershipTransition>& membership() const {
    return transitions_;
  }

  // Walkers currently charged against board `b` (counted on the Launch
  // board for the walker's whole life, even as it migrates): the queue
  // occupancy signal the service's admission control keys on.
  uint32_t InflightOn(BoardId b) const;
  uint32_t free_slots() const;

  // Injects a walker executing `query` starting on `board` at cycle
  // `at`. Requires a free slot. The ticket seeds the walker's private
  // RNG streams and is echoed in WalkerEnd.
  void Launch(uint64_t ticket, const apps::WalkQuery& query, BoardId board,
              hwsim::Cycle at, const WalkerOptions& options = {});
  // Schedules an on_wake(tag, at) callback at cycle `at`.
  void ScheduleWake(uint64_t tag, hwsim::Cycle at);

  // Processes events in simulated-cycle order until none remain.
  // Callbacks may Launch new walkers and schedule further wakes;
  // resumable (more work may be injected afterwards and Drain() rerun).
  void Drain();

  hwsim::Cycle makespan() const { return makespan_; }
  uint64_t total_steps() const { return total_steps_; }

  // Sums per-board datapath stats (plus cluster-level recovery events)
  // into `stats`, fills cycles/seconds/per_board_graph_bytes, and
  // publishes per-board metrics. Call once, after the final Drain().
  void Finalize(DistributedRunStats* stats);

 private:
  struct Board;
  // Walker state is struct-of-arrays, split by access pattern so the
  // per-event working set stays dense: Walker holds what every Step()
  // touches (walk state, RNG streams, path), WalkerAttrib the span id
  // and cycle-stage accumulators (written per step, read at retire),
  // and WalkerCold the checkpoint/recovery snapshots — untouched on the
  // fault-free fast path, and by far the largest of the three.
  struct Walker;
  struct WalkerAttrib;
  struct WalkerCold;

  // Heap events: (cycle, kind, id) — kind 0 walker slot, kind 1 wake
  // tag, kind 2 membership (board death / rebuild completion), kind 3
  // checkpoint-store scrub tick. The tuple order is the deterministic
  // tie-break: membership events process after same-cycle walker and
  // wake events, so a board serves every walker event already scheduled
  // for its death cycle.
  using Event = std::tuple<hwsim::Cycle, int, uint64_t>;
  // Kind-2 event ids below the base are indices into deaths_; ids at or
  // above it encode `kRebuildEventBase + board` rebuild completions.
  static constexpr uint64_t kRebuildEventBase = 1ULL << 32;
  // Sentinel for "share has no serving board" / "board serves no share".
  static constexpr BoardId kNoBoard = static_cast<BoardId>(~0u);

  void Step(size_t slot, hwsim::Cycle now);
  void EndWalkSpan(size_t slot, hwsim::Cycle at);
  void Retire(size_t slot, hwsim::Cycle at);
  void FailWalker(size_t slot, hwsim::Cycle at, bool board_lost);
  void Recover(size_t slot, hwsim::Cycle at);
  void TakeCheckpoint(size_t slot, Board& board, hwsim::Cycle at);
  // Membership machinery (see DESIGN.md "Membership, spares & partition
  // rebuild"). Transition() bumps the epoch and logs/traces the change;
  // the others drive the state machine off kind-2 events.
  void Transition(BoardId b, reliability::BoardState to, hwsim::Cycle at);
  void RebuildSurvivors();
  void ProcessDeath(size_t death_index, hwsim::Cycle now);
  void TryActivateSpare(BoardId share, hwsim::Cycle at);
  void CompleteRebuild(BoardId spare, hwsim::Cycle now);
  // Durable checkpoint store machinery: encode + write the walker's
  // current checkpoint (and retain the generation-aligned snapshot),
  // run one scrub tick, and release walkers parked through a
  // total-owner-loss window once a rebuild restores a serving board.
  void WriteStoreCheckpoint(size_t slot, hwsim::Cycle at);
  void ProcessScrub(hwsim::Cycle now);
  void FlushParked(hwsim::Cycle now);

  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  const Partition* partition_;
  DistributedConfig config_;
  bool surface_failures_ = false;
  // Constant per run; cached here so the per-step path skips the
  // virtual dispatch through app_.
  bool needs_prev_neighbors_ = false;
  double stop_probability_ = 0.0;

  std::vector<Board> boards_;
  std::vector<Walker> walkers_;
  std::vector<WalkerAttrib> attribs_;  // parallel to walkers_
  std::vector<WalkerCold> cold_;       // parallel to walkers_
  std::vector<uint32_t> inflight_;  // per Launch board
  // Free walker slots, allocated lowest-index first for determinism.
  std::priority_queue<size_t, std::vector<size_t>, std::greater<>>
      free_slots_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;

  RetireFn on_retire_;
  WakeFn on_wake_;

  // Effective death schedule (legacy fail_cycle folded in, sorted,
  // deduplicated per board); empty means fault-free membership.
  std::vector<reliability::BoardDeath> deaths_;
  bool checkpointing_ = false;
  uint64_t ckpt_interval_ = 0;
  // Membership: per-board state, share->serving-board and
  // board->share maps (shares are named by their original owner's local
  // id), the sorted alive serving boards SurvivorOf() draws from, and
  // the epoch-ordered transition log.
  std::vector<reliability::BoardState> state_;
  std::vector<BoardId> serving_;   // share -> board (kNoBoard = orphaned)
  std::vector<BoardId> share_of_;  // board -> share (kNoBoard = none)
  std::vector<BoardId> survivors_;
  uint64_t epoch_ = 0;
  std::vector<reliability::MembershipTransition> transitions_;
  // Rebuild cost model inputs: modeled bytes of each partition share
  // and, per board, the cycle its rebuild started (spares only).
  std::vector<uint64_t> share_bytes_;
  std::vector<hwsim::Cycle> rebuild_start_;
  // Recovery-side events (board failure, lost walkers) that belong to
  // the failover logic rather than any one board's datapath.
  reliability::ReliabilityStats recovery_rel_;
  // Durable checkpoint store (nullptr unless faults.ckpt_store.enabled
  // and the schedule can actually trigger recovery). Walkers recovered
  // while no serving board is alive park here as (slot, park cycle)
  // until FlushParked() runs off a rebuild completion.
  std::unique_ptr<reliability::CkptStore> store_;
  std::vector<std::pair<size_t, hwsim::Cycle>> parked_;
  bool scrub_scheduled_ = false;

  hwsim::Cycle makespan_ = 0;
  uint64_t total_steps_ = 0;
  uint64_t total_migrations_ = 0;

  // Simulated-time telemetry (all null unless config.board.timeseries is
  // set): the recorder's window clock is driven from Drain(), and these
  // cached live-registry handles are updated on the hot path. A null
  // recorder costs one branch per event.
  obs::TimeSeriesRecorder* ts_ = nullptr;
  obs::Counter* ts_steps_ = nullptr;
  obs::Counter* ts_retired_ = nullptr;
  obs::Counter* ts_failed_ = nullptr;
  obs::Counter* ts_deaths_ = nullptr;
  obs::Counter* ts_rebuilds_ = nullptr;
  obs::Gauge* ts_inflight_ = nullptr;
  obs::Histogram* ts_latency_ = nullptr;
  std::vector<obs::Counter*> ts_board_steps_;  // by local board id
  hwsim::Cycle last_event_cycle_ = 0;
};

}  // namespace lightrw::distributed

#endif  // LIGHTRW_DISTRIBUTED_CLUSTER_SIM_H_
