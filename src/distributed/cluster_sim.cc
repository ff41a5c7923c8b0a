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

struct ClusterSim::Walker {
  WalkState state;
  uint32_t remaining = 0;
  uint64_t ticket = 0;
  hwsim::Cycle launched = 0;  // dispatch cycle (telemetry latency base)
  BoardId board = 0;         // board currently executing the walker
  BoardId launch_board = 0;  // board charged for the slot
  Phase phase = Phase::kInfo;
  // The path's steps pick uniformly (a degraded service attempt).
  bool uniform = false;
  // The path's last step drew the stop coin that ended the walk.
  bool stopped = false;
  WalkerOptions opts;
  // The one source of every step's next vertex. The walker has walked
  // path[0, state.step].
  std::vector<VertexId> path;

  // The attempt's "walk" span and its cycle-stage attribution. The
  // accumulators partition the attempt's elapsed cycles by pipeline
  // stage (attached as span attrs at retire); see obs/critical_path.h
  // for the component definitions.
  struct Attribution {
    uint64_t span = 0;
    core::StageCycleStats stage;   // the accelerator datapath's share
    uint64_t network_cycles = 0;   // migration transfer + retransmissions
    uint64_t recovery_cycles = 0;  // fault detection / failover delay
  } attrib;

  // The step the walker's last checkpoint recorded. Only written when
  // checkpointing or the durable store is active. The walker's path is
  // known, so the state at that step is all failover needs: replayed
  // steps read the same vertices again.
  struct Checkpoint {
    WalkState state;
    uint64_t epoch = 0;  // checkpoint interval index of the snapshot
  } ckpt;
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
                                const graph::CsrGraph& graph,
                                const Partition& partition) {
  const std::vector<reliability::BoardDeath> deaths =
      reliability::EffectiveBoardDeaths(config.board.faults);
  if (deaths.empty()) {
    return Status::Ok();
  }
  const BoardId num_boards = partition.num_boards();
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
  if (config.num_spare_boards > 0) {
    // A spare copies its share in ceil(bytes / rebuild_bytes_per_cycle)
    // cycles. Below 2^47, the bound the service retry backoff uses, that
    // count converts to Cycle exactly and `at + copy` cannot wrap.
    uint64_t largest = graph.ModeledByteSize();
    if (!config.replicate_graph) {
      const std::vector<uint64_t> shares = partition.ShareByteSizes(graph);
      largest = *std::max_element(shares.begin(), shares.end());
    }
    if (static_cast<double>(largest) / config.rebuild_bytes_per_cycle >=
        0x1p47) {
      return OutOfRangeError(
          "rebuild_bytes_per_cycle too small: copying the largest share (" +
          std::to_string(largest) +
          " bytes) to a spare takes 2^47 cycles or more");
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
    : graph_(graph),
      app_(app),
      partition_(partition),
      config_(config),
      walker_events_(max_walkers) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(partition != nullptr);
  LIGHTRW_CHECK_EQ(partition->owners().size(), graph->num_vertices());

  const BoardId num_boards = partition->num_boards();
  const reliability::FaultConfig& faults = config_.board.faults;
  deaths_ = reliability::EffectiveBoardDeaths(faults);
  // Checkpoints are taken whenever a fault source could force a recovery
  // (the service layer retries whole queries instead, so its walkers
  // never replay from checkpoints — but taking them is harmless and
  // keeps the checkpoint accounting comparable across drivers).
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
                         app->needs_prev_neighbors());
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
  for (size_t i = 0; i < deaths_.size(); ++i) {
    events_.emplace(deaths_[i].cycle, 2, i);
  }

  walkers_ = std::vector<Walker>(max_walkers);
  inflight_.assign(total, 0);
  for (size_t i = 0; i < walkers_.size(); ++i) {
    free_slots_.push(i);
  }

  // Simulated-time telemetry: cache the series handles once; every
  // hot-path update below is gated on these staying null.
  ts_ = config_.board.timeseries;
  if (ts_ != nullptr) {
    ts_steps_ = ts_->GetCounter("dist.steps");
    ts_retired_ = ts_->GetCounter("dist.walks.retired");
    ts_failed_ = ts_->GetCounter("dist.walks.failed");
    ts_deaths_ = ts_->GetCounter("dist.membership.deaths");
    ts_rebuilds_ = ts_->GetCounter("dist.membership.rebuilds");
    ts_inflight_ = ts_->GetGauge("dist.inflight");
    ts_latency_ = ts_->GetHistogram("dist.walk_latency_cycles");
    ts_board_steps_.reserve(total);
    for (BoardId b = 0; b < total; ++b) {
      ts_board_steps_.push_back(ts_->GetCounter(
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
  const char* name = to == reliability::BoardState::kDead
                         ? "board_failure"
                         : to == reliability::BoardState::kRebuilding
                               ? "spare_activated"
                               : "partition_rebuilt";
  BoardInstant(b, name, at);
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
      BoardInstant(s, "rebuild_from_store", at);
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
  BoardInstant(share, "spare_exhausted", at);
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
  for (const auto& [slot, parked_at] : parked_) {
    Walker& w = walkers_[slot];
    w.board = config_.replicate_graph ? SurvivorOf(w.ticket)
                                      : LiveOwnerOf(w.state.curr);
    const Cycle resume = now + reliability::kRecoveryCyclesPerWalker;
    recovery_rel_.recovery_cycles += resume - parked_at;
    w.attrib.recovery_cycles += resume - parked_at;
    ++recovery_rel_.walkers_recovered;
    WalkerFault(slot, "walker_recovered", resume);
    LIGHTRW_DCHECK(!walker_events_.pending(slot));
    walker_events_.Set(slot, resume);
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
  if (store_->Scrub(budget).repairs > 0) {
    BoardInstant(0, "ckpt_scrub_repair", now);
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

void ClusterSim::Launch(const core::TicketPath& path, BoardId board,
                        Cycle at, const WalkerOptions& options) {
  LIGHTRW_CHECK(!path.vertices.empty() &&
                path.vertices.size() <= uint64_t{path.query.length} + 1);
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
  w.state.curr = path.query.start;
  w.remaining = path.query.length;
  w.ticket = path.ticket;
  w.board = exec_board;
  w.launch_board = board;
  w.launched = at;
  w.phase = Phase::kInfo;
  w.uniform = path.uniform;
  w.stopped = path.stopped;
  w.opts = options;
  w.path = path.vertices;
  if (w.path.size() > 1 && !config_.replicate_graph) {
    partition_->PrefetchOwner(w.path[1]);
  }
  if (checkpointing_ || store_ != nullptr) {
    // Dispatch checkpoint: a walker can always be recovered to its
    // start. Skipped when nothing can trigger a recovery.
    w.ckpt.state = w.state;
    w.ckpt.epoch = checkpointing_ ? at / ckpt_interval_ : 0;
  }
  w.attrib = {};
  if (obs::SpanRecorder* spans = config_.board.spans) {
    w.attrib.span = spans->Begin(w.ticket, options.parent_span, "walk",
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
  LIGHTRW_DCHECK(!walker_events_.pending(slot));
  walker_events_.Set(slot, at);
}

void ClusterSim::ScheduleWake(uint64_t tag, Cycle at) {
  events_.emplace(at, 1, tag);
}

void ClusterSim::TakeCheckpoint(size_t slot, Board& board, Cycle at) {
  if (!checkpointing_) {
    return;
  }
  Walker& w = walkers_[slot];
  const uint64_t epoch = at / ckpt_interval_;
  if (epoch > w.ckpt.epoch) {
    w.ckpt.state = w.state;
    w.ckpt.epoch = epoch;
    ++board.rel.checkpoints;
    if (store_ != nullptr) {
      WriteStoreCheckpoint(slot, at);
    }
  }
}

// Encodes the walker's current checkpoint and writes it into the
// durable store. A record that validates on a later read restores the
// walker by itself.
void ClusterSim::WriteStoreCheckpoint(size_t slot, Cycle at) {
  const Walker& w = walkers_[slot];
  const WalkState& state = w.ckpt.state;
  reliability::CkptRecord record;
  record.ticket = w.ticket;
  record.cycle = at;
  record.step = state.step;
  record.curr = state.curr;
  record.prev = state.prev;
  record.path_len = state.step + 1;
  store_->Write(record);
  SpanEvent(slot, "ckpt_write", at);
}

void ClusterSim::SpanEvent(size_t slot, const char* name, Cycle at) {
  if (obs::SpanRecorder* spans = config_.board.spans) {
    const Walker& w = walkers_[slot];
    spans->Event(w.ticket, w.attrib.span, name, at);
  }
}

void ClusterSim::BoardInstant(BoardId b, const char* name, Cycle at) {
  obs::TraceRecorder* trace = config_.board.trace;
  if (trace != nullptr && trace->accepting()) {
    trace->Instant(name, "fault", GlobalBoard(b), kBoardNetTrack, at);
  }
}

void ClusterSim::WalkerFault(size_t slot, const char* name, Cycle at) {
  BoardInstant(walkers_[slot].board, name, at);
  SpanEvent(slot, name, at);
}

// Attaches the attempt's cycle-stage attribution to its "walk" span and
// closes it. Attr keys and order are fixed (critical_path.cc keys on
// them, and a fixed order keeps the export byte-stable).
void ClusterSim::EndWalkSpan(size_t slot, Cycle at) {
  obs::SpanRecorder* spans = config_.board.spans;
  Walker& w = walkers_[slot];
  Walker::Attribution& a = w.attrib;
  if (spans == nullptr || a.span == 0) {
    return;
  }
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

void ClusterSim::Retire(size_t slot, Cycle at, Outcome outcome) {
  Walker& w = walkers_[slot];
  if (ts_ != nullptr) {
    if (outcome == Outcome::kDone) {
      // Exemplar ids before EndWalkSpan clears the span handle: the
      // window's worst sample must resolve into the span export.
      ts_latency_->Observe(static_cast<double>(at - w.launched), w.ticket,
                           w.attrib.span);
      ts_retired_->Increment();
    } else {
      ts_failed_->Increment();
    }
    ts_inflight_->Add(-1.0);
  }
  EndWalkSpan(slot, at);
  if (store_ != nullptr) {
    store_->Drop(w.ticket);
  }
  WalkerEnd end;
  end.ticket = w.ticket;
  end.at = at;
  end.steps = w.state.step;
  end.board = w.launch_board;
  end.board_lost = outcome == Outcome::kBoardLost;
  end.data_fault = outcome == Outcome::kDataFault;
  makespan_ = std::max(makespan_, at);
  --inflight_[w.launch_board];
  // Before the callback, which may relaunch into this slot.
  walker_events_.Cancel(slot);
  free_slots_.push(slot);
  // The walked prefix: the path ends here only if nothing cut it.
  w.path.resize(w.state.step + 1);
  std::vector<VertexId> path = std::move(w.path);
  w.path.clear();
  if (on_retire_) {
    on_retire_(end, std::move(path));
  }
}

// Retires at `retire_at` a walker whose state at `at` cannot be
// restored. Its walk failed and is counted unless the walker had walked
// its whole path: then only its retirement at the dead end was
// pending, and its path is complete.
void ClusterSim::RetireLost(size_t slot, Cycle at, Cycle retire_at) {
  const Walker& w = walkers_[slot];
  if (w.state.step + 1 < w.path.size()) {
    ++recovery_rel_.walkers_lost;
    ++recovery_rel_.walks_failed;
    WalkerFault(slot, "walker_lost", at);
  }
  Retire(slot, retire_at);
}

// Rewinds a walker along its path to its checkpoint's step and
// re-dispatches it on a surviving board (its state on the old board —
// resident or in a lost migration message — is gone). Without a
// checkpoint the walker is lost: it retires truncated (RetireLost).
// Never for a walker that surfaces its failures: the service owns the
// retry.
void ClusterSim::Recover(size_t slot, Cycle at) {
  Walker& w = walkers_[slot];
  LIGHTRW_CHECK(!w.opts.surface_failures);
  const reliability::FaultConfig& faults = config_.board.faults;
  if (!checkpointing_ && store_ == nullptr) {
    RetireLost(slot, at, at);
    return;
  }
  Cycle read_latency = 0;
  if (store_ != nullptr) {
    // Durable path: the in-memory snapshot is no longer authoritative —
    // recovery must come from bytes that survive CRC validation,
    // falling back through the generation chain.
    const reliability::CkptStore::ReadResult rr = store_->Read(w.ticket);
    read_latency = rr.latency_cycles;
    SpanEvent(slot, "ckpt_read", at);
    if (rr.crc_failures > 0) {
      WalkerFault(slot, "ckpt_crc_fail", at);
    }
    if (!rr.found) {
      // Every generation failed validation: the walker is unrecoverable
      // (the store counted ckpt_unrecoverable).
      RetireLost(slot, at, at + read_latency);
      return;
    }
    if (rr.fell_back) {
      SpanEvent(slot, "ckpt_fallback", at);
    }
    // The validated record alone restores the walker: its step, vertex
    // and previous vertex on the known path.
    const reliability::CkptRecord& record = rr.record;
    LIGHTRW_CHECK(record.step <= w.state.step &&
                  record.path_len == record.step + 1 &&
                  record.curr == w.path[record.step]);
    recovery_rel_.replayed_steps += w.state.step - record.step;
    w.state.step = record.step;
    w.state.curr = record.curr;
    w.state.prev = record.prev;
  } else {
    recovery_rel_.replayed_steps += w.state.step - w.ckpt.state.step;
    w.state = w.ckpt.state;
  }
  w.phase = Phase::kInfo;
  if (survivors_.empty()) {
    // Total owner loss: no serving board is alive, so the recovered
    // walker parks until a spare's rebuild-from-store completes
    // (CheckFailoverSatisfiable guarantees one will).
    parked_.emplace_back(slot, at);
    walker_events_.Cancel(slot);
    WalkerFault(slot, "walker_parked", at);
    return;
  }
  w.board = config_.replicate_graph ? SurvivorOf(w.ticket)
                                    : LiveOwnerOf(w.state.curr);
  const Cycle resume = at + faults.detection_latency_cycles +
                       reliability::kRecoveryCyclesPerWalker + read_latency;
  recovery_rel_.recovery_cycles += resume - at;
  w.attrib.recovery_cycles += resume - at;
  ++recovery_rel_.walkers_recovered;
  WalkerFault(slot, "walker_recovered", resume);
  walker_events_.Set(slot, resume);
}

void ClusterSim::Step(size_t slot, Cycle now) {
  Walker& w = walkers_[slot];
  Walker::Attribution& a = w.attrib;
  const reliability::FaultConfig& faults = config_.board.faults;

  // Board failure: any event landing on a dead board after its death
  // cycle finds the walker's resident state gone.
  if (state_[w.board] == reliability::BoardState::kDead) {
    SpanEvent(slot, "board_failure", now);
    if (w.opts.surface_failures) {
      a.recovery_cycles += faults.detection_latency_cycles;
      Retire(slot, now + faults.detection_latency_cycles,
             Outcome::kBoardLost);
    } else {
      Recover(slot, now);
    }
    return;
  }
  Board& board = boards_[w.board];
  // A degraded uniform step keeps its cost whatever the WRS setting.
  const core::FetchPolicy policy = w.uniform
                                       ? core::FetchPolicy::kUniformPick
                                       : core::WeightedPolicy(config_.board);

  if (w.phase == Phase::kInfo) {
    if (w.state.step >= w.remaining) {
      Retire(slot, now);
      return;
    }
    const uint64_t corrected_before = board.rel.dram_correctable;
    const Cycle t_info = board.model.Info(now, w.state, policy, &a.stage);
    if (board.rel.dram_correctable > corrected_before) {
      SpanEvent(slot, "dram_retry", t_info);
    }
    if (board.model.channel().TakeAccessFailure()) {
      // Uncorrectable ECC error on the row lookup: the walk cannot
      // continue from corrupt state.
      SpanEvent(slot, "dram_uncorrectable", t_info);
      if (w.opts.surface_failures) {
        Retire(slot, t_info, Outcome::kDataFault);
      } else {
        ++board.rel.walks_failed;
        Retire(slot, t_info);
      }
      return;
    }
    if (graph_->Degree(w.state.curr) == 0) {
      a.stage.pipeline_cycles += core::kPipelineDepthCycles;
      Retire(slot, t_info + core::kPipelineDepthCycles);
      return;
    }
    w.phase = Phase::kFetch;
    walker_events_.Set(slot, t_info);
    return;
  }

  // Phase::kFetch: adjacency stream + sampling on the owner board.
  const uint64_t corrected_before = board.rel.dram_correctable;
  const core::BoardStepModel::FetchTiming fetch =
      board.model.Fetch(now, w.state, policy, &a.stage);
  const Cycle step_end = fetch.done;
  if (board.rel.dram_correctable > corrected_before) {
    SpanEvent(slot, "dram_retry", fetch.last_data);
  }

  // A path that ends here ended on all-zero weights.
  const VertexId next = w.state.step + 1 < w.path.size()
                            ? w.path[w.state.step + 1]
                            : graph::kInvalidVertex;
  w.phase = Phase::kInfo;
  if (board.model.channel().TakeAccessFailure()) {
    // Uncorrectable ECC error in the adjacency stream: the sampled step
    // is based on corrupt data, so the walk fails here.
    SpanEvent(slot, "dram_uncorrectable", step_end);
    if (w.opts.surface_failures) {
      Retire(slot, step_end, Outcome::kDataFault);
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
  graph_->PrefetchRow(next);  // the next step's row lookup reads it
  w.state.prev = w.state.curr;
  w.state.curr = next;
  ++w.state.step;
  const bool last = w.state.step + 1 == w.path.size();
  if (!last && !config_.replicate_graph) {
    // The step after this one routes on the next vertex's owner.
    partition_->PrefetchOwner(w.path[w.state.step + 1]);
  }
  ++total_steps_;
  ++board.steps_served;
  if (ts_steps_ != nullptr) {
    ts_steps_->Increment();
    ts_board_steps_[w.board]->Increment();
  }
  board.last_activity = std::max(board.last_activity, step_end);
  TakeCheckpoint(slot, board, step_end);

  if ((last && w.stopped) || w.state.step >= w.remaining) {
    Retire(slot, step_end);
    return;
  }

  const BoardId next_board =
      config_.replicate_graph ? w.board : LiveOwnerOf(next);
  if (next_board != w.board) {
    // Ship the walker state to the owner of the next vertex; a lost
    // message (retransmission budget exhausted) surfaces the loss or
    // recovers the walker from its checkpoint.
    const hwsim::LinkDelivery delivery =
        board.link.SendReliable(step_end, config_.walker_message_bytes);
    ++total_migrations_;
    ++board.migrations_out;
    a.network_cycles += delivery.arrival - step_end;
    if (delivery.attempts > 1) {
      SpanEvent(slot, "link_retransmit", step_end);
    }
    if (!delivery.delivered) {
      SpanEvent(slot, "link_loss", delivery.arrival);
      if (w.opts.surface_failures) {
        Retire(slot, delivery.arrival, Outcome::kBoardLost);
      } else {
        Recover(slot, delivery.arrival);
      }
      return;
    }
    w.board = next_board;
    walker_events_.Set(slot, delivery.arrival);
  } else {
    walker_events_.Set(slot, step_end);
  }
}

void ClusterSim::Drain() {
  while (!walker_events_.empty() || !events_.empty()) {
    // Walker events (kind 0) sort first among events of one cycle.
    const bool walker =
        !walker_events_.empty() &&
        (events_.empty() ||
         walker_events_.top_cycle() <= std::get<0>(events_.top()));
    const auto [now, kind, id] =
        walker ? Event{walker_events_.top_cycle(), 0,
                       walker_events_.top_slot()}
               : events_.top();
    if (!walker) {
      events_.pop();
    }
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
