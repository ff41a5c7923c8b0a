#include "distributed/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "reliability/ckpt_store.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lightrw::distributed {

namespace {

using apps::WalkState;
using graph::VertexId;
using hwsim::Cycle;

// Trace track (tid) layout within one board's pid.
enum BoardTrack : uint32_t {
  kBoardDramTrack = 0,
  kBoardNetTrack = 1,
};

enum class Phase { kInfo, kFetch };

}  // namespace

// Per-board datapath: one accelerator step model plus an egress link.
struct ClusterSim::Board {
  Board(const graph::CsrGraph* graph, const core::AcceleratorConfig& config,
        const hwsim::LinkConfig& link_config, bool needs_prev_neighbors)
      : model(graph, config, needs_prev_neighbors), link(link_config) {}

  core::BoardStepModel model;
  hwsim::NetworkLink link;
  uint64_t steps_served = 0;      // steps executed on this board
  uint64_t migrations_out = 0;    // walkers shipped off this board
  hwsim::Cycle last_activity = 0; // latest step completion on this board
  // Deterministic fault schedules (one stream per fault domain) and the
  // counters their events land in.
  reliability::FaultStream dram_faults;
  reliability::FaultStream link_faults;
  reliability::ReliabilityStats rel;
};

// Periodic walker-state snapshot: everything failover needs to resume the
// walk from the checkpointed step — including the private RNG streams, so
// replayed steps reproduce the original path exactly.
struct WalkerCheckpoint {
  WalkState state;
  uint32_t path_len = 1;
  uint64_t epoch = 0;  // checkpoint interval index of the snapshot
  rng::ThunderingRng rng{1, 0};
  rng::Xoshiro256StarStar aux{0};
};

// Hot per-slot walker state: everything the per-event path touches on a
// fault-free run. The checkpoint snapshots and the span attribution
// accumulators live in the parallel WalkerCold / WalkerAttrib arrays
// (see cluster_sim.h) so this struct stays small and the event loop's
// working set dense.
struct ClusterSim::Walker {
  WalkState state;
  uint32_t remaining = 0;
  uint64_t ticket = 0;
  hwsim::Cycle launched = 0;  // dispatch cycle (telemetry latency base)
  BoardId board = 0;         // board currently executing the walker
  BoardId launch_board = 0;  // board charged for the slot
  Phase phase = Phase::kInfo;
  WalkerOptions opts;
  std::vector<VertexId> path;
  // Private sampling streams: the WRS lanes draw from `rng`, geometric
  // stop coins and degraded uniform picks from `aux`. Seeded per Launch
  // from (config seed, ticket) so the walk is interleaving-independent.
  rng::ThunderingRng rng{1, 0};
  rng::Xoshiro256StarStar aux{0};
  // Constructed lazily (it holds a pointer to `rng`, whose address is
  // only stable once the walker vector stops relocating).
  std::unique_ptr<core::StepSampler> sampler;
};

// Per-attempt "walk" span and its cycle-stage attribution. The
// accumulators partition the attempt's elapsed cycles by pipeline stage
// (attached as span attrs at retire); see obs/critical_path.h for the
// component definitions.
struct ClusterSim::WalkerAttrib {
  uint64_t span = 0;
  core::StageCycleStats stage;   // the accelerator datapath's share
  uint64_t network_cycles = 0;   // migration transfer + retransmissions
  uint64_t recovery_cycles = 0;  // fault detection / failover delay
};

// Checkpoint/recovery state: only touched when checkpointing or the
// durable store is active, and dominated by the snapshot RNG copies.
struct ClusterSim::WalkerCold {
  WalkerCheckpoint ckpt;
  // Durable-store bookkeeping: (generation, snapshot) pairs for every
  // generation the store may still serve, pruned to its retention
  // window. The encoded record is the corruption target; the snapshot
  // supplies the RNG streams a validated read restores (the generators
  // expose no serializable state — see ckpt_store.h).
  std::vector<std::pair<uint64_t, WalkerCheckpoint>> store_snaps;
};

void DistributedRunStats::Accumulate(const DistributedRunStats& part) {
  queries += part.queries;
  steps += part.steps;
  migrations += part.migrations;
  dram += part.dram;
  network.messages += part.network.messages;
  network.payload_bytes += part.network.payload_bytes;
  network.busy_cycles += part.network.busy_cycles;
  reliability.Accumulate(part.reliability);
  membership.insert(membership.end(), part.membership.begin(),
                    part.membership.end());
  cycles = std::max(cycles, part.cycles);
  per_board_graph_bytes =
      std::max(per_board_graph_bytes, part.per_board_graph_bytes);
}

Status CheckFailoverSatisfiable(const DistributedConfig& config,
                                BoardId num_boards) {
  const std::vector<reliability::BoardDeath> deaths =
      reliability::EffectiveBoardDeaths(config.board.faults);
  if (deaths.empty()) {
    return Status::Ok();
  }
  const uint32_t total = num_boards + config.num_spare_boards;
  uint32_t owner_deaths = 0;
  for (const reliability::BoardDeath& d : deaths) {
    if (d.board >= total) {
      return InvalidArgumentError(
          "scheduled death of board " + std::to_string(d.board) +
          " out of range for " + std::to_string(num_boards) +
          " board(s) + " + std::to_string(config.num_spare_boards) +
          " spare(s)");
    }
    if (d.board < num_boards) {
      ++owner_deaths;
    }
  }
  if (num_boards < 2) {
    return FailedPreconditionError(
        "board failover needs at least 2 boards (no survivor to recover "
        "onto)");
  }
  const bool store_on = config.board.faults.enabled &&
                        config.board.faults.ckpt_store.enabled;
  if (!store_on) {
    // A death can land before any rebuild completes, and a rebuild
    // needs a live owner to copy from, so spares do not relax the
    // survivor bound: some original board must outlive the schedule.
    if (owner_deaths >= num_boards) {
      return FailedPreconditionError(
          "death schedule kills all " + std::to_string(num_boards) +
          " partition owner(s): no survivor to recover onto; enable the "
          "durable checkpoint store (faults.ckpt_store.enabled / "
          "--ckpt-store) to rebuild shares from checkpoints instead");
    }
    return Status::Ok();
  }
  // Durable store enabled: a spare rebuilds a share from the store with
  // no live owner, so all-owner-death schedules are legal as long as
  // some board outlives the whole schedule and a spare exists to
  // rebuild through.
  if (deaths.size() >= total) {
    return FailedPreconditionError(
        "death schedule kills every board and spare (" +
        std::to_string(total) +
        "): nothing outlives the schedule even with the durable "
        "checkpoint store");
  }
  if (owner_deaths >= num_boards && config.num_spare_boards == 0) {
    return FailedPreconditionError(
        "death schedule kills all " + std::to_string(num_boards) +
        " partition owner(s) and no spare is configured: the durable "
        "checkpoint store rebuilds through a spare; set "
        "num_spare_boards >= 1");
  }
  return Status::Ok();
}

ClusterSim::ClusterSim(const graph::CsrGraph* graph, const apps::WalkApp* app,
                       const Partition* partition,
                       const DistributedConfig& config, uint32_t max_walkers)
    : graph_(graph), app_(app), partition_(partition), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(partition != nullptr);
  LIGHTRW_CHECK_EQ(partition->owners().size(), graph->num_vertices());
  needs_prev_neighbors_ = app->needs_prev_neighbors();
  stop_probability_ = app->stop_probability();

  const BoardId num_boards = partition->num_boards();
  const reliability::FaultConfig& faults = config_.board.faults;
  deaths_ = reliability::EffectiveBoardDeaths(faults);
  // Checkpoints are taken whenever a fault source could force a recovery
  // (the service layer retries whole queries instead, so surfaced-failure
  // mode never replays from checkpoints — but taking them is harmless and
  // keeps the checkpoint accounting comparable across modes).
  const bool recovery_possible =
      !deaths_.empty() ||
      (faults.enabled &&
       (faults.link_drop_rate > 0.0 || faults.link_corrupt_rate > 0.0));
  checkpointing_ =
      recovery_possible && faults.checkpoint_interval_cycles > 0;
  ckpt_interval_ = checkpointing_ ? faults.checkpoint_interval_cycles : 0;
  if (faults.enabled && faults.ckpt_store.enabled && recovery_possible) {
    // Durable checkpoint store, with its fault-stream id in a domain
    // disjoint from the per-board DRAM (global id) and link
    // (0x10000 + global) streams.
    store_ = std::make_unique<reliability::CkptStore>(
        faults, 0x20000ULL + config_.first_board);
  }

  // Spares are only instantiated when a death is scheduled: a fault-free
  // run builds exactly the boards it always did (bit-identical results),
  // and the spares' global ids start past the partition owners so their
  // fault streams never perturb the owners' schedules.
  const BoardId num_spares =
      deaths_.empty() ? 0 : static_cast<BoardId>(config_.num_spare_boards);
  const BoardId total = static_cast<BoardId>(num_boards + num_spares);

  obs::TraceRecorder* trace = config_.board.trace;
  boards_.reserve(total);
  for (BoardId b = 0; b < total; ++b) {
    boards_.emplace_back(graph_, config_.board, config_.link,
                         needs_prev_neighbors_);
  }
  for (BoardId b = 0; b < total; ++b) {
    Board& board = boards_[b];
    const BoardId global = GlobalBoard(b);
    if (faults.enabled) {
      board.dram_faults = reliability::FaultStream(faults, global);
      board.link_faults =
          reliability::FaultStream(faults, 0x10000ULL + global);
      board.model.channel().AttachFaults(&board.dram_faults, &board.rel);
      board.link.AttachFaults(&board.link_faults, &board.rel);
    }
    if (trace != nullptr) {
      trace->NameProcess(global, b < num_boards
                                     ? "board " + std::to_string(global)
                                     : "board " + std::to_string(global) +
                                           " (spare)");
      trace->NameTrack(global, kBoardDramTrack, "dram channel");
      trace->NameTrack(global, kBoardNetTrack, "network / faults");
      board.model.channel().AttachTrace(trace, global, kBoardDramTrack);
    }
  }

  // Membership: owners start alive serving their own share, spares idle.
  state_.assign(total, reliability::BoardState::kAlive);
  serving_.resize(num_boards);
  share_of_.assign(total, kNoBoard);
  for (BoardId b = 0; b < num_boards; ++b) {
    serving_[b] = b;
    share_of_[b] = b;
  }
  for (BoardId b = num_boards; b < total; ++b) {
    state_[b] = reliability::BoardState::kSpare;
  }
  RebuildSurvivors();
  rebuild_start_.assign(total, 0);
  if (!deaths_.empty() && num_spares > 0) {
    // Rebuild cost model input: what a spare must re-materialize to
    // take over a share (the full image when replicated).
    if (config_.replicate_graph) {
      share_bytes_.assign(num_boards, graph_->ModeledByteSize());
    } else {
      share_bytes_ = partition_->ShareByteSizes(*graph_);
    }
  }
  // Pre-reserve the event heap and free-slot heap storage: both churn
  // on every step, and priority_queue only exposes capacity through its
  // container constructor. Each in-flight walker holds at most one
  // pending event; membership and scrub events add a handful more.
  {
    std::vector<Event> storage;
    storage.reserve(static_cast<size_t>(max_walkers) + deaths_.size() + 16);
    events_ = decltype(events_)(std::greater<>(), std::move(storage));
    std::vector<size_t> slots;
    slots.reserve(max_walkers);
    free_slots_ = decltype(free_slots_)(std::greater<>(), std::move(slots));
  }
  for (size_t i = 0; i < deaths_.size(); ++i) {
    events_.emplace(deaths_[i].cycle, 2, i);
  }

  walkers_ = std::vector<Walker>(max_walkers);
  attribs_.assign(max_walkers, WalkerAttrib{});
  cold_ = std::vector<WalkerCold>(max_walkers);
  inflight_.assign(total, 0);
  for (size_t i = 0; i < walkers_.size(); ++i) {
    free_slots_.push(i);
  }

  // Simulated-time telemetry: cache live-registry handles once (fixed
  // creation order keeps the series set deterministic); every hot-path
  // update below is gated on these staying null.
  ts_ = config_.board.timeseries;
  if (ts_ != nullptr) {
    obs::MetricsRegistry* live = ts_->live();
    ts_steps_ = live->GetCounter("dist.steps");
    ts_retired_ = live->GetCounter("dist.walks.retired");
    ts_failed_ = live->GetCounter("dist.walks.failed");
    ts_deaths_ = live->GetCounter("dist.membership.deaths");
    ts_rebuilds_ = live->GetCounter("dist.membership.rebuilds");
    ts_inflight_ = live->GetGauge("dist.inflight");
    ts_latency_ = live->GetHistogram("dist.walk_latency_cycles");
    ts_board_steps_.reserve(total);
    for (BoardId b = 0; b < total; ++b) {
      ts_board_steps_.push_back(live->GetCounter(
          "dist.board.steps", {{"board", std::to_string(GlobalBoard(b))}}));
    }
  }
}

ClusterSim::~ClusterSim() = default;

BoardId ClusterSim::num_boards() const { return partition_->num_boards(); }

BoardId ClusterSim::total_boards() const {
  return static_cast<BoardId>(boards_.size());
}

BoardId ClusterSim::SurvivorOf(uint64_t salt) const {
  LIGHTRW_CHECK(!survivors_.empty());
  return survivors_[salt % survivors_.size()];
}

BoardId ClusterSim::LiveOwnerOf(VertexId v) const {
  const BoardId share = partition_->OwnerOf(v);
  const BoardId serving = serving_[share];
  if (serving != kNoBoard && IsAlive(serving)) {
    return serving;
  }
  if (survivors_.empty()) {
    // Total-owner-loss window (reachable only with the durable
    // checkpoint store enabled): report the dead owner — a walker
    // routed there parks at its next event until a rebuild-from-store
    // restores a serving board.
    return share;
  }
  // Orphaned share (mid-rebuild or spare pool exhausted): surviving
  // boards serve it, chosen deterministically per vertex.
  return SurvivorOf(v);
}

// Rebuilds the sorted alive-serving-board list SurvivorOf() indexes.
// Called on every serving-set change; the list is the routing ground
// truth for orphaned shares, so it must never be empty (guaranteed by
// CheckFailoverSatisfiable's survivor bound).
void ClusterSim::RebuildSurvivors() {
  survivors_.clear();
  for (BoardId share = 0; share < num_boards(); ++share) {
    const BoardId b = serving_[share];
    if (b != kNoBoard && IsAlive(b)) {
      survivors_.push_back(b);
    }
  }
}

// Bumps the membership epoch and records/traces one board state change.
void ClusterSim::Transition(BoardId b, reliability::BoardState to,
                            Cycle at) {
  const reliability::BoardState from = state_[b];
  state_[b] = to;
  ++epoch_;
  transitions_.push_back({epoch_, at, GlobalBoard(b), from, to});
  obs::TraceRecorder* trace = config_.board.trace;
  if (trace != nullptr && trace->accepting()) {
    const char* name = to == reliability::BoardState::kDead
                           ? "board_failure"
                           : to == reliability::BoardState::kRebuilding
                                 ? "spare_activated"
                                 : "partition_rebuilt";
    trace->Instant(name, "fault", GlobalBoard(b), kBoardNetTrack, at);
  }
  if (ts_ != nullptr) {
    const char* kind = to == reliability::BoardState::kDead
                           ? "board_death"
                           : to == reliability::BoardState::kRebuilding
                                 ? "spare_activated"
                                 : "rebuild_complete";
    ts_->Annotate(kind, at, "board " + std::to_string(GlobalBoard(b)));
  }
}

// Kind-2 death event: the board's resident walker state is gone (their
// next event finds the board dead and recovers), its share is orphaned,
// and a spare — if one remains — starts rebuilding the share.
void ClusterSim::ProcessDeath(size_t death_index, Cycle now) {
  const reliability::BoardDeath& death = deaths_[death_index];
  const BoardId b = static_cast<BoardId>(death.board);
  if (state_[b] == reliability::BoardState::kDead) {
    return;  // defensive: EffectiveBoardDeaths dedups per board
  }
  const bool was_rebuilding =
      state_[b] == reliability::BoardState::kRebuilding;
  Transition(b, reliability::BoardState::kDead, now);
  ++recovery_rel_.board_failures;
  if (ts_deaths_ != nullptr) {
    ts_deaths_->Increment();
  }
  if (was_rebuilding) {
    ++recovery_rel_.rebuilds_aborted;
  }
  const BoardId share = share_of_[b];
  share_of_[b] = kNoBoard;
  if (share == kNoBoard) {
    return;  // an idle spare died: no share to hand off
  }
  if (serving_[share] == b) {
    serving_[share] = kNoBoard;
    RebuildSurvivors();
  }
  TryActivateSpare(share, now);
}

// Activates the lowest-id idle spare for an orphaned share and schedules
// its rebuild completion: detection latency plus the share's bytes over
// the rebuild bandwidth. With no spare left the cluster stays in
// survivor-only degraded mode (counted, traced).
void ClusterSim::TryActivateSpare(BoardId share, Cycle at) {
  for (BoardId s = num_boards(); s < total_boards(); ++s) {
    if (state_[s] != reliability::BoardState::kSpare) {
      continue;
    }
    Transition(s, reliability::BoardState::kRebuilding, at);
    share_of_[s] = share;
    rebuild_start_[s] = at;
    ++recovery_rel_.spares_activated;
    if (store_ != nullptr && survivors_.empty()) {
      // No live owner to copy from: the spare re-materializes the
      // share from the durable checkpoint store instead.
      obs::TraceRecorder* trace = config_.board.trace;
      if (trace != nullptr && trace->accepting()) {
        trace->Instant("rebuild_from_store", "fault", GlobalBoard(s),
                       kBoardNetTrack, at);
      }
    }
    const uint64_t bytes = share_bytes_.empty() ? 0 : share_bytes_[share];
    const Cycle copy_cycles = static_cast<Cycle>(
        std::ceil(static_cast<double>(bytes) /
                  config_.rebuild_bytes_per_cycle));
    const Cycle done =
        at + config_.board.faults.detection_latency_cycles + copy_cycles;
    events_.emplace(done, 2, kRebuildEventBase + s);
    return;
  }
  ++recovery_rel_.spare_exhaustions;
  obs::TraceRecorder* trace = config_.board.trace;
  if (trace != nullptr && trace->accepting()) {
    trace->Instant("spare_exhausted", "fault", GlobalBoard(share),
                   kBoardNetTrack, at);
  }
}

// Kind-2 rebuild-completion event: ownership of the share transfers to
// the spare — launches and migrations aimed at the share route to it
// from this cycle on. A spare that died mid-rebuild never gets here.
void ClusterSim::CompleteRebuild(BoardId spare, Cycle now) {
  if (state_[spare] != reliability::BoardState::kRebuilding) {
    return;  // died mid-rebuild (rebuilds_aborted already counted)
  }
  Transition(spare, reliability::BoardState::kAlive, now);
  serving_[share_of_[spare]] = spare;
  RebuildSurvivors();
  ++recovery_rel_.rebuilds_completed;
  if (ts_rebuilds_ != nullptr) {
    ts_rebuilds_->Increment();
  }
  recovery_rel_.rebuild_cycles += now - rebuild_start_[spare];
  FlushParked(now);
}

// Releases walkers parked through a total-owner-loss window: the
// rebuild completing at `now` restored a serving board, so each parked
// walker re-dispatches after the usual per-walker recovery cost. The
// whole parked wait is charged as recovery time.
void ClusterSim::FlushParked(Cycle now) {
  if (parked_.empty()) {
    return;
  }
  obs::TraceRecorder* trace = config_.board.trace;
  obs::SpanRecorder* spans = config_.board.spans;
  const reliability::FaultConfig& faults = config_.board.faults;
  for (const auto& [slot, parked_at] : parked_) {
    Walker& w = walkers_[slot];
    w.board = config_.replicate_graph ? SurvivorOf(w.ticket)
                                      : LiveOwnerOf(w.state.curr);
    const Cycle resume = now + faults.recovery_cycles_per_walker;
    recovery_rel_.recovery_cycles += resume - parked_at;
    attribs_[slot].recovery_cycles += resume - parked_at;
    ++recovery_rel_.walkers_recovered;
    if (trace != nullptr && trace->accepting()) {
      trace->Instant("walker_recovered", "fault", GlobalBoard(w.board),
                     kBoardNetTrack, resume);
    }
    if (spans != nullptr) {
      spans->Event(w.ticket, attribs_[slot].span, "walker_recovered",
                   resume);
    }
    events_.emplace(resume, 0, slot);
  }
  parked_.clear();
}

// Kind-3 event: one scrub tick. The budget is bytes-per-cycle times the
// tick interval, spent revalidating stored records from the store's
// persistent cursor; repairs come from a validating peer replica. The
// tick reschedules itself only while walkers are in flight (Drain must
// terminate on an idle cluster); Launch re-arms it.
void ClusterSim::ProcessScrub(Cycle now) {
  scrub_scheduled_ = false;
  const reliability::CkptStoreConfig& sc = config_.board.faults.ckpt_store;
  const uint64_t budget = static_cast<uint64_t>(
      sc.scrub_bytes_per_cycle *
      static_cast<double>(sc.scrub_interval_cycles));
  const reliability::CkptStore::ScrubResult result = store_->Scrub(budget);
  obs::TraceRecorder* trace = config_.board.trace;
  if (result.repairs > 0 && trace != nullptr && trace->accepting()) {
    trace->Instant("ckpt_scrub_repair", "fault", GlobalBoard(0),
                   kBoardNetTrack, now);
  }
  if (free_slots_.size() < walkers_.size()) {
    events_.emplace(now + sc.scrub_interval_cycles, 3, 0);
    scrub_scheduled_ = true;
  }
}

uint32_t ClusterSim::InflightOn(BoardId b) const { return inflight_[b]; }

uint32_t ClusterSim::free_slots() const {
  return static_cast<uint32_t>(free_slots_.size());
}

void ClusterSim::Launch(uint64_t ticket, const apps::WalkQuery& query,
                        BoardId board, Cycle at,
                        const WalkerOptions& options) {
  LIGHTRW_CHECK(!free_slots_.empty());
  LIGHTRW_CHECK(board < total_boards());
  const size_t slot = free_slots_.top();
  free_slots_.pop();
  Walker& w = walkers_[slot];
  // Identity transfer: a launch aimed at a board whose share is now
  // served by a rebuilt spare executes there (the caller's board keeps
  // the slot accounting, so service-side breakers and admission signals
  // see the original board identity recover).
  BoardId exec_board = board;
  if (!IsAlive(board) && board < num_boards()) {
    const BoardId serving = serving_[board];
    if (serving != kNoBoard && IsAlive(serving)) {
      exec_board = serving;
    }
  }
  w.state = WalkState{};
  w.state.curr = query.start;
  w.remaining = options.max_steps > 0
                    ? std::min(query.length, options.max_steps)
                    : query.length;
  w.ticket = ticket;
  w.board = exec_board;
  w.launch_board = board;
  w.launched = at;
  w.phase = Phase::kInfo;
  w.opts = options;
  w.path.clear();
  w.path.push_back(query.start);
  // Private streams keyed on (seed, ticket): the walk's outcome is a pure
  // function of the ticket, independent of timing and placement. Reseed
  // re-keys the slot's pooled generator in place (same state a fresh
  // ThunderingRng would hold, without its three allocations).
  rng::SplitMix64 mix(config_.board.seed +
                      0x9e3779b97f4a7c15ULL * (ticket + 1));
  w.rng.Reseed(config_.board.sampler_parallelism, mix.Next());
  w.aux = rng::Xoshiro256StarStar(mix.Next());
  if (w.sampler == nullptr) {
    w.sampler = std::make_unique<core::StepSampler>(
        config_.board.sampler_parallelism, &w.rng);
  }
  if (checkpointing_ || store_ != nullptr) {
    // Dispatch checkpoint: a walker can always be recovered to its
    // start. Skipped entirely when nothing can trigger a recovery —
    // the snapshot (two RNG stream copies per launch) is the single
    // largest per-launch cost.
    WalkerCold& c = cold_[slot];
    c.ckpt.state = w.state;
    c.ckpt.path_len = 1;
    c.ckpt.epoch = checkpointing_ ? at / ckpt_interval_ : 0;
    c.ckpt.rng = w.rng;
    c.ckpt.aux = w.aux;
    c.store_snaps.clear();
  }
  attribs_[slot] = WalkerAttrib{};
  if (obs::SpanRecorder* spans = config_.board.spans) {
    attribs_[slot].span = spans->Begin(ticket, options.parent_span, "walk",
                                       "exec", GlobalBoard(exec_board), at);
  }
  if (store_ != nullptr) {
    // Generation 0: the dispatch checkpoint is durable too, so even a
    // walker killed before its first periodic checkpoint recovers.
    WriteStoreCheckpoint(slot, at);
    const reliability::CkptStoreConfig& sc = config_.board.faults.ckpt_store;
    if (!scrub_scheduled_ && sc.scrub_interval_cycles > 0) {
      events_.emplace(at + sc.scrub_interval_cycles, 3, 0);
      scrub_scheduled_ = true;
    }
  }
  ++inflight_[board];
  if (ts_inflight_ != nullptr) {
    ts_inflight_->Add(1.0);
  }
  events_.emplace(at, 0, slot);
}

void ClusterSim::ScheduleWake(uint64_t tag, Cycle at) {
  events_.emplace(at, 1, tag);
}

void ClusterSim::TakeCheckpoint(size_t slot, Board& board, Cycle at) {
  if (!checkpointing_) {
    return;
  }
  const Walker& w = walkers_[slot];
  WalkerCheckpoint& ckpt = cold_[slot].ckpt;
  const uint64_t epoch = at / ckpt_interval_;
  if (epoch > ckpt.epoch) {
    ckpt.state = w.state;
    ckpt.path_len = static_cast<uint32_t>(w.path.size());
    ckpt.epoch = epoch;
    ckpt.rng = w.rng;
    ckpt.aux = w.aux;
    ++board.rel.checkpoints;
    if (store_ != nullptr) {
      WriteStoreCheckpoint(slot, at);
    }
  }
}

// Encodes the walker's current checkpoint and writes it into the
// durable store, retaining the (generation, snapshot) pair the encoded
// bytes stand for: the bytes are the integrity/corruption target, the
// snapshot carries the RNG streams. The ring is pruned to the store's
// retention window so it stays bounded.
void ClusterSim::WriteStoreCheckpoint(size_t slot, Cycle at) {
  const Walker& w = walkers_[slot];
  WalkerCold& c = cold_[slot];
  reliability::CkptRecord record;
  record.ticket = w.ticket;
  record.cycle = at;
  record.step = c.ckpt.state.step;
  record.curr = c.ckpt.state.curr;
  record.prev = c.ckpt.state.prev;
  record.path_len = c.ckpt.path_len;
  const reliability::CkptStore::WriteResult wr = store_->Write(record);
  c.store_snaps.emplace_back(wr.generation, c.ckpt);
  while (!c.store_snaps.empty() &&
         c.store_snaps.front().first < wr.oldest_generation) {
    c.store_snaps.erase(c.store_snaps.begin());
  }
  if (obs::SpanRecorder* spans = config_.board.spans) {
    spans->Event(w.ticket, attribs_[slot].span, "ckpt_write", at);
  }
}

// Attaches the attempt's cycle-stage attribution to its "walk" span and
// closes it. Attr keys and order are fixed (critical_path.cc keys on
// them, and a fixed order keeps the export byte-stable).
void ClusterSim::EndWalkSpan(size_t slot, Cycle at) {
  obs::SpanRecorder* spans = config_.board.spans;
  WalkerAttrib& a = attribs_[slot];
  if (spans == nullptr || a.span == 0) {
    return;
  }
  const Walker& w = walkers_[slot];
  spans->Attr(w.ticket, a.span, "dram_info", a.stage.info_cycles);
  spans->Attr(w.ticket, a.span, "dram_fetch", a.stage.fetch_cycles);
  spans->Attr(w.ticket, a.span, "sampler", a.stage.sampler_cycles);
  spans->Attr(w.ticket, a.span, "pipeline", a.stage.pipeline_cycles);
  spans->Attr(w.ticket, a.span, "network", a.network_cycles);
  spans->Attr(w.ticket, a.span, "recovery", a.recovery_cycles);
  spans->Attr(w.ticket, a.span, "steps", w.state.step);
  spans->End(w.ticket, a.span, at);
  a.span = 0;
}

void ClusterSim::Retire(size_t slot, Cycle at) {
  Walker& w = walkers_[slot];
  if (ts_latency_ != nullptr) {
    // Exemplar ids before EndWalkSpan clears the span handle: the
    // window's worst sample must resolve into the span export.
    ts_latency_->ObserveExemplar(static_cast<double>(at - w.launched),
                                 w.ticket, attribs_[slot].span);
    ts_retired_->Increment();
    ts_inflight_->Add(-1.0);
  }
  EndWalkSpan(slot, at);
  if (store_ != nullptr) {
    store_->Drop(w.ticket);
    cold_[slot].store_snaps.clear();
  }
  WalkerEnd end;
  end.ticket = w.ticket;
  end.at = at;
  end.steps = w.state.step;
  end.board = w.launch_board;
  makespan_ = std::max(makespan_, at);
  --inflight_[w.launch_board];
  free_slots_.push(slot);
  std::vector<VertexId> path = std::move(w.path);
  w.path.clear();
  if (on_retire_) {
    on_retire_(end, std::move(path));
  }
}

void ClusterSim::FailWalker(size_t slot, Cycle at, bool board_lost) {
  Walker& w = walkers_[slot];
  if (ts_failed_ != nullptr) {
    ts_failed_->Increment();
    ts_inflight_->Add(-1.0);
  }
  EndWalkSpan(slot, at);
  if (store_ != nullptr) {
    store_->Drop(w.ticket);
    cold_[slot].store_snaps.clear();
  }
  WalkerEnd end;
  end.ticket = w.ticket;
  end.at = at;
  end.steps = w.state.step;
  end.board = w.launch_board;
  end.board_lost = board_lost;
  end.data_fault = !board_lost;
  makespan_ = std::max(makespan_, at);
  --inflight_[w.launch_board];
  free_slots_.push(slot);
  std::vector<VertexId> path = std::move(w.path);
  w.path.clear();
  if (on_retire_) {
    on_retire_(end, std::move(path));
  }
}

// Rolls a walker back to its checkpoint and re-dispatches it on a
// surviving board (its state on the old board — resident or in a lost
// migration message — is gone). Without a checkpoint the walk is lost:
// it retires truncated and is counted. Batch mode only; the service
// layer gets the failure surfaced instead and owns the retry.
void ClusterSim::Recover(size_t slot, Cycle at) {
  Walker& w = walkers_[slot];
  WalkerAttrib& a = attribs_[slot];
  obs::TraceRecorder* trace = config_.board.trace;
  obs::SpanRecorder* spans = config_.board.spans;
  const reliability::FaultConfig& faults = config_.board.faults;
  if (!checkpointing_ && store_ == nullptr) {
    ++recovery_rel_.walkers_lost;
    ++recovery_rel_.walks_failed;
    if (trace != nullptr && trace->accepting()) {
      trace->Instant("walker_lost", "fault", GlobalBoard(w.board),
                     kBoardNetTrack, at);
    }
    if (spans != nullptr) {
      spans->Event(w.ticket, a.span, "walker_lost", at);
    }
    Retire(slot, at);
    return;
  }
  Cycle read_latency = 0;
  if (store_ != nullptr) {
    // Durable path: the in-memory snapshot is no longer authoritative —
    // recovery must come from bytes that survive CRC validation,
    // falling back through the generation chain.
    const reliability::CkptStore::ReadResult rr = store_->Read(w.ticket);
    read_latency = rr.latency_cycles;
    if (spans != nullptr) {
      spans->Event(w.ticket, a.span, "ckpt_read", at);
    }
    if (rr.crc_failures > 0) {
      if (trace != nullptr && trace->accepting()) {
        trace->Instant("ckpt_crc_fail", "fault", GlobalBoard(w.board),
                       kBoardNetTrack, at);
      }
      if (spans != nullptr) {
        spans->Event(w.ticket, a.span, "ckpt_crc_fail", at);
      }
    }
    if (!rr.found) {
      // Every generation failed validation: the walk is unrecoverable
      // and retires truncated (the store counted ckpt_unrecoverable).
      ++recovery_rel_.walkers_lost;
      ++recovery_rel_.walks_failed;
      if (trace != nullptr && trace->accepting()) {
        trace->Instant("walker_lost", "fault", GlobalBoard(w.board),
                       kBoardNetTrack, at);
      }
      if (spans != nullptr) {
        spans->Event(w.ticket, a.span, "walker_lost", at);
      }
      Retire(slot, at + read_latency);
      return;
    }
    if (rr.fell_back && spans != nullptr) {
      spans->Event(w.ticket, a.span, "ckpt_fallback", at);
    }
    // Restore from the generation-aligned snapshot (the validated
    // record cross-checks it; the snapshot supplies the RNG streams).
    const WalkerCheckpoint* snap = nullptr;
    for (const auto& [generation, s] : cold_[slot].store_snaps) {
      if (generation == rr.record.generation) {
        snap = &s;
        break;
      }
    }
    LIGHTRW_CHECK(snap != nullptr);
    LIGHTRW_CHECK_EQ(snap->state.step, rr.record.step);
    recovery_rel_.replayed_steps += w.state.step - snap->state.step;
    w.state = snap->state;
    w.path.resize(snap->path_len);
    w.rng = snap->rng;
    w.aux = snap->aux;
  } else {
    const WalkerCheckpoint& ckpt = cold_[slot].ckpt;
    recovery_rel_.replayed_steps += w.state.step - ckpt.state.step;
    w.state = ckpt.state;
    w.path.resize(ckpt.path_len);
    w.rng = ckpt.rng;
    w.aux = ckpt.aux;
  }
  w.phase = Phase::kInfo;
  if (survivors_.empty()) {
    // Total owner loss: no serving board is alive, so the recovered
    // walker parks until a spare's rebuild-from-store completes
    // (CheckFailoverSatisfiable guarantees one will).
    parked_.emplace_back(slot, at);
    if (trace != nullptr && trace->accepting()) {
      trace->Instant("walker_parked", "fault", GlobalBoard(w.board),
                     kBoardNetTrack, at);
    }
    if (spans != nullptr) {
      spans->Event(w.ticket, a.span, "walker_parked", at);
    }
    return;
  }
  w.board = config_.replicate_graph ? SurvivorOf(w.ticket)
                                    : LiveOwnerOf(w.state.curr);
  const Cycle resume = at + faults.detection_latency_cycles +
                       faults.recovery_cycles_per_walker + read_latency;
  recovery_rel_.recovery_cycles += resume - at;
  a.recovery_cycles += resume - at;
  ++recovery_rel_.walkers_recovered;
  if (trace != nullptr && trace->accepting()) {
    trace->Instant("walker_recovered", "fault", GlobalBoard(w.board),
                   kBoardNetTrack, resume);
  }
  if (spans != nullptr) {
    spans->Event(w.ticket, a.span, "walker_recovered", resume);
  }
  events_.emplace(resume, 0, slot);
}

void ClusterSim::Step(size_t slot, Cycle now) {
  Walker& w = walkers_[slot];
  WalkerAttrib& a = attribs_[slot];
  obs::SpanRecorder* spans = config_.board.spans;
  const reliability::FaultConfig& faults = config_.board.faults;

  // Board failure: any event landing on a dead board after its death
  // cycle finds the walker's resident state gone.
  if (state_[w.board] == reliability::BoardState::kDead) {
    if (spans != nullptr) {
      spans->Event(w.ticket, a.span, "board_failure", now);
    }
    if (surface_failures_) {
      a.recovery_cycles += faults.detection_latency_cycles;
      FailWalker(slot, now + faults.detection_latency_cycles,
                 /*board_lost=*/true);
    } else {
      Recover(slot, now);
    }
    return;
  }
  Board& board = boards_[w.board];
  // A degraded uniform step keeps its cost whatever the WRS setting.
  const core::FetchPolicy policy = w.opts.uniform_step
                                       ? core::FetchPolicy::kUniformPick
                                       : core::WeightedPolicy(config_.board);

  if (w.phase == Phase::kInfo) {
    if (w.state.step >= w.remaining) {
      Retire(slot, now);
      return;
    }
    const uint64_t corrected_before = board.rel.dram_correctable;
    const Cycle t_info = board.model.Info(now, w.state, policy, &a.stage);
    if (spans != nullptr &&
        board.rel.dram_correctable > corrected_before) {
      spans->Event(w.ticket, a.span, "dram_retry", t_info);
    }
    if (board.model.channel().TakeAccessFailure()) {
      // Uncorrectable ECC error on the row lookup: the walk cannot
      // continue from corrupt state.
      if (spans != nullptr) {
        spans->Event(w.ticket, a.span, "dram_uncorrectable", t_info);
      }
      if (surface_failures_) {
        FailWalker(slot, t_info, /*board_lost=*/false);
      } else {
        ++board.rel.walks_failed;
        Retire(slot, t_info);
      }
      return;
    }
    if (graph_->Degree(w.state.curr) == 0) {
      a.stage.pipeline_cycles += config_.board.pipeline_depth_cycles;
      Retire(slot, t_info + config_.board.pipeline_depth_cycles);
      return;
    }
    w.phase = Phase::kFetch;
    events_.emplace(t_info, 0, slot);
    return;
  }

  // Phase::kFetch: adjacency stream + sampling on the owner board.
  const uint64_t corrected_before = board.rel.dram_correctable;
  const core::BoardStepModel::FetchTiming fetch =
      board.model.Fetch(now, w.state, policy, &a.stage);
  const Cycle step_end = fetch.done;
  if (spans != nullptr && board.rel.dram_correctable > corrected_before) {
    spans->Event(w.ticket, a.span, "dram_retry", fetch.last_data);
  }

  VertexId next;
  if (w.opts.uniform_step) {
    const uint32_t degree = graph_->Degree(w.state.curr);
    next = graph_->Neighbors(w.state.curr)[w.aux.NextBounded(degree)];
  } else {
    next = w.sampler->SampleNext(*graph_, *app_, w.state);
  }
  w.phase = Phase::kInfo;
  if (board.model.channel().TakeAccessFailure()) {
    // Uncorrectable ECC error in the adjacency stream: the sampled step
    // is based on corrupt data, so the walk fails here.
    if (spans != nullptr) {
      spans->Event(w.ticket, a.span, "dram_uncorrectable", step_end);
    }
    if (surface_failures_) {
      FailWalker(slot, step_end, /*board_lost=*/false);
    } else {
      ++board.rel.walks_failed;
      Retire(slot, step_end);
    }
    return;
  }
  if (next == graph::kInvalidVertex) {
    Retire(slot, step_end);
    return;
  }
  w.state.prev = w.state.curr;
  w.state.curr = next;
  ++w.state.step;
  ++total_steps_;
  ++board.steps_served;
  if (ts_steps_ != nullptr) {
    ts_steps_->Increment();
    ts_board_steps_[w.board]->Increment();
  }
  board.last_activity = std::max(board.last_activity, step_end);
  w.path.push_back(next);
  TakeCheckpoint(slot, board, step_end);

  const bool stopped =
      stop_probability_ > 0.0 && w.aux.NextUnit() < stop_probability_;
  if (stopped || w.state.step >= w.remaining) {
    Retire(slot, step_end);
    return;
  }

  const BoardId next_board =
      config_.replicate_graph ? w.board : LiveOwnerOf(next);
  if (next_board != w.board) {
    // Ship the walker state to the owner of the next vertex; a lost
    // message (retransmission budget exhausted) recovers the walker
    // from its checkpoint (batch) or surfaces the loss (service).
    const hwsim::LinkDelivery delivery =
        board.link.SendReliable(step_end, config_.walker_message_bytes);
    ++total_migrations_;
    ++board.migrations_out;
    a.network_cycles += delivery.arrival - step_end;
    if (spans != nullptr && delivery.attempts > 1) {
      spans->Event(w.ticket, a.span, "link_retransmit", step_end);
    }
    if (!delivery.delivered) {
      if (spans != nullptr) {
        spans->Event(w.ticket, a.span, "link_loss", delivery.arrival);
      }
      if (surface_failures_) {
        FailWalker(slot, delivery.arrival, /*board_lost=*/true);
      } else {
        Recover(slot, delivery.arrival);
      }
      return;
    }
    w.board = next_board;
    events_.emplace(delivery.arrival, 0, slot);
  } else {
    events_.emplace(step_end, 0, slot);
  }
}

void ClusterSim::Drain() {
  while (!events_.empty()) {
    const auto [now, kind, id] = events_.top();
    events_.pop();
    if (ts_ != nullptr) {
      // Close every window boundary at or before this event: between
      // events nothing changes, so the boundary state is captured
      // exactly (an event at the boundary cycle belongs to the next
      // window).
      ts_->AdvanceTo(now);
      last_event_cycle_ = std::max(last_event_cycle_, now);
    }
    if (kind == 0) {
      Step(static_cast<size_t>(id), now);
    } else if (kind == 1) {
      if (on_wake_) {
        on_wake_(id, now);
      }
    } else if (kind == 3) {
      ProcessScrub(now);
    } else if (id >= kRebuildEventBase) {
      CompleteRebuild(static_cast<BoardId>(id - kRebuildEventBase), now);
    } else {
      ProcessDeath(static_cast<size_t>(id), now);
    }
  }
}

void ClusterSim::Finalize(DistributedRunStats* stats) {
  LIGHTRW_CHECK(stats != nullptr);
  obs::MetricsRegistry* metrics = config_.board.metrics;
  if (ts_ != nullptr) {
    ts_->Finish(std::max(makespan_, last_event_cycle_));
  }
  stats->steps = total_steps_;
  stats->migrations = total_migrations_;
  if (store_ != nullptr) {
    // End-of-run audit: still-undetected injected corruption becomes
    // latent in the ledger, then the store's counters fold into the
    // cluster-level reliability stats (published under board=cluster).
    store_->FinalizeAudit();
    recovery_rel_.Accumulate(store_->stats());
  }
  stats->reliability.Accumulate(recovery_rel_);
  stats->membership.insert(stats->membership.end(), transitions_.begin(),
                           transitions_.end());
  for (BoardId b = 0; b < total_boards(); ++b) {
    const Board& board = boards_[b];
    stats->dram += board.model.channel().stats();
    stats->network.messages += board.link.stats().messages;
    stats->network.payload_bytes += board.link.stats().payload_bytes;
    stats->network.busy_cycles += board.link.stats().busy_cycles;
    stats->reliability.Accumulate(board.rel);
    if (metrics != nullptr) {
      // Per-partition load balance: one label set per board.
      const obs::Labels labels = {{"board", std::to_string(GlobalBoard(b))}};
      metrics->GetCounter("dist.board.steps", labels)
          ->Increment(board.steps_served);
      metrics->GetCounter("dist.board.migrations_out", labels)
          ->Increment(board.migrations_out);
      metrics->GetCounter("dist.board.dram_bytes", labels)
          ->Increment(board.model.channel().stats().bytes);
      metrics->GetCounter("dist.board.link_messages", labels)
          ->Increment(board.link.stats().messages);
      metrics->GetCounter("dist.board.link_bytes", labels)
          ->Increment(board.link.stats().payload_bytes);
      metrics->GetGauge("dist.board.busy_until_cycles", labels)
          ->Set(static_cast<double>(board.last_activity));
      reliability::PublishReliabilityMetrics(metrics, board.rel, labels);
    }
  }
  if (metrics != nullptr) {
    // Failover-logic events are cluster-level, not per-board.
    reliability::PublishReliabilityMetrics(metrics, recovery_rel_,
                                           {{"board", "cluster"}});
    if (!transitions_.empty()) {
      metrics->GetGauge("membership.epoch", {{"board", "cluster"}})
          ->Set(static_cast<double>(epoch_));
    }
  }
  stats->cycles = makespan_;
  stats->seconds =
      static_cast<double>(makespan_) / config_.board.dram.clock_hz;
  if (config_.replicate_graph) {
    stats->per_board_graph_bytes = graph_->ModeledByteSize();
  } else {
    // Largest partition share (also the rebuild cost model's input).
    for (const uint64_t share : partition_->ShareByteSizes(*graph_)) {
      stats->per_board_graph_bytes =
          std::max(stats->per_board_graph_bytes, share);
    }
  }
}

}  // namespace lightrw::distributed
