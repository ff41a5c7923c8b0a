#include "service/walk_service.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "distributed/config_validation.h"
#include "lightrw/sink_shards.h"
#include "lightrw/ticket_walk.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace lightrw::service {

namespace {

using distributed::BoardId;
using distributed::ClusterSim;
using distributed::WalkerEnd;
using distributed::WalkerOptions;
using graph::VertexId;
using hwsim::Cycle;

// Wake-tag encoding: kind in the top byte, payload below. Tag order is
// the deterministic tie-break among wakes at the same cycle (arrivals,
// then retries, then breaker cooldowns).
constexpr uint64_t kTagKindShift = 56;
constexpr uint64_t kArrivalKind = 0;
constexpr uint64_t kRetryKind = 1;
constexpr uint64_t kBreakerKind = 2;
constexpr uint64_t kTagPayloadMask = (1ULL << kTagKindShift) - 1;

uint64_t MakeTag(uint64_t kind, uint64_t payload) {
  return (kind << kTagKindShift) | payload;
}

// Circuit breaker (layer 3): consecutive failures on one board that
// trip it, and how long it stays open before half-opening.
constexpr uint32_t kBreakerFailureThreshold = 4;
constexpr Cycle kBreakerCooldownCycles = Cycle{1} << 14;

// Graceful degradation (layer 4): queue fill at dispatch, as a fraction
// of queue_capacity, from which a best-effort query is shortened to
// kDegradeShortenFactor of its requested length (at least one step),
// and from which it also steps uniformly. Uniform is the stronger tier,
// so a uniform walk is always shortened too.
constexpr double kDegradeShortenOccupancy = 0.5;
constexpr double kDegradeUniformOccupancy = 0.75;
constexpr double kDegradeShortenFactor = 0.5;
static_assert(kDegradeUniformOccupancy >= kDegradeShortenOccupancy);

// Trace track for service events, below each board's dram (0) and
// network (1) tracks named by ClusterSim.
constexpr uint32_t kServiceTrack = 2;

// Why a query could not be served right now — maps to the shed reason
// once the retry budget is exhausted.
enum class Reject { kQueueFull, kBreakerOpen, kWalkFailure };

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

}  // namespace

Status ValidateServiceConfig(const ServiceConfig& config) {
  LIGHTRW_RETURN_IF_ERROR(
      distributed::ValidateDistributedConfig(config.cluster));
  LIGHTRW_RETURN_IF_ERROR(ValidateArrivalConfig(config.arrivals));
  if (config.queue_capacity == 0) {
    return InvalidArgumentError("service.queue_capacity must be > 0");
  }
  if (config.retry_budget > 0 && config.retry_backoff_cycles == 0) {
    return InvalidArgumentError(
        "service.retry_backoff_cycles must be > 0 when retries are "
        "enabled");
  }
  // The last retry backs off retry_backoff_cycles << (retry_budget - 1).
  // While bit_width(retry_backoff_cycles) + retry_budget <= 48 that stays
  // below 2^47 cycles, so neither the shift nor `at + backoff` can wrap.
  if (config.retry_budget > 0 &&
      std::bit_width(config.retry_backoff_cycles) +
              uint64_t{config.retry_budget} >
          48) {
    return OutOfRangeError(
        "service retry backoff overflow: retry_backoff_cycles " +
        std::to_string(config.retry_backoff_cycles) + " with retry_budget " +
        std::to_string(config.retry_budget) +
        " can back off 2^47 cycles or more");
  }
  if (config.admission_shards == 0) {
    return InvalidArgumentError("service.admission_shards must be >= 1");
  }
  if (config.admission_shards > 1) {
    if (!config.cluster.replicate_graph) {
      return InvalidArgumentError(
          "service.admission_shards > 1 requires cluster.replicate_graph "
          "(a shard must be able to serve any vertex on its own boards)");
    }
    if (config.cluster.board.faults.AnyFaultsPossible()) {
      return InvalidArgumentError(
          "service.admission_shards > 1 is incompatible with fault "
          "injection (failover recovery couples boards across shards)");
    }
  }
  return Status::Ok();
}

core::SloSummary ServiceRunStats::Slo() const {
  core::SloSummary s;
  s.offered = offered;
  s.completed = completed;
  s.shed = Shed();
  s.failed = failed;
  s.deadline_violations = deadline_violations;
  s.degraded = degraded;
  s.breaker_trips = breaker_trips;
  s.retries = retries;
  s.goodput_per_s = GoodputPerSecond();
  s.shed_rate = ShedRate();
  s.violation_rate = ViolationRate();
  if (queue_delay_cycles.count() > 0) {
    s.queue_delay_p50 = queue_delay_cycles.Quantile(0.5);
    s.queue_delay_p99 = queue_delay_cycles.Quantile(0.99);
  }
  if (latency_cycles.count() > 0) {
    s.latency_p50 = latency_cycles.Quantile(0.5);
    s.latency_p99 = latency_cycles.Quantile(0.99);
  }
  return s;
}

WalkService::WalkService(const graph::CsrGraph* graph,
                         const apps::WalkApp* app,
                         const distributed::Partition* partition,
                         const ServiceConfig& config)
    : graph_(graph), app_(app), partition_(partition), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(partition != nullptr);
}

StatusOr<ServiceRunStats> WalkService::Run(baseline::WalkOutput* output) {
  LIGHTRW_RETURN_IF_ERROR(ValidateServiceConfig(config_));
  const BoardId num_boards = partition_->num_boards();
  LIGHTRW_RETURN_IF_ERROR(
      distributed::CheckFailoverSatisfiable(config_.cluster, *graph_,
                                            *partition_));
  const uint32_t num_shards = config_.admission_shards;
  if (num_shards > num_boards || num_boards % num_shards != 0) {
    return InvalidArgumentError(
        "service.admission_shards (" + std::to_string(num_shards) +
        ") must evenly divide the board count (" +
        std::to_string(num_boards) + ")");
  }
  const BoardId boards_per_shard =
      static_cast<BoardId>(num_boards / num_shards);
  auto arrivals_or = GenerateArrivals(config_.arrivals, *graph_);
  if (!arrivals_or.ok()) {
    return arrivals_or.status();
  }
  std::vector<ServiceQuery> arrivals = std::move(*arrivals_or);

  ServiceRunStats stats;
  stats.offered = arrivals.size();

  // Per-query serving state. Shard s owns exactly the entries with
  // qi mod num_shards == s, so shards write disjoint slots.
  struct Rec {
    QueryOutcome outcome = QueryOutcome::kPending;
    uint32_t attempts = 0;      // admissions tried (dispatched or bounced)
    Cycle admitted_at = 0;      // last enqueue cycle
    bool shortened = false;     // degradation applied to the last dispatch
    bool uniform = false;
    uint64_t root_span = 0;     // "query" span: first admission -> terminal
    uint64_t queue_span = 0;    // open "queue" span of the current attempt
    std::vector<VertexId> path;
  };
  std::vector<Rec> recs(arrivals.size());

  // Shard-private totals, merged in shard order after the barrier so the
  // merged result is independent of how shards interleave in time. The
  // shared metrics registry is written only from these, after the merge.
  struct ShardStats {
    uint64_t retries = 0;
    uint64_t deadline_violations = 0;
    uint64_t degraded[2] = {};  // degraded dispatches: shorten, uniform
    // Per local board: breaker trips, and the queue depth after each
    // enqueue (recorded only when metrics are published).
    std::vector<uint64_t> breaker_trips;
    std::vector<SampleStats> queue_depth;
    SampleStats queue_delay_cycles;
    SampleStats latency_cycles;
    distributed::DistributedRunStats cluster;
  };
  std::vector<ShardStats> shard_stats(num_shards);
  obs::MetricsRegistry* const metrics = config_.cluster.board.metrics;
  for (ShardStats& ss : shard_stats) {
    ss.breaker_trips.resize(boards_per_shard);
    if (metrics != nullptr) {
      ss.queue_depth.resize(boards_per_shard);
    }
  }
  // Shard s traces exactly the queries qi mod num_shards == s, so the
  // shards' span traces are disjoint.
  core::SinkShards sinks(config_.cluster.board, num_shards);

  // Sharding requires replicate_graph, where vertex ownership is never
  // resolved: the partition only sizes each shard's sim.
  std::optional<distributed::Partition> shard_partition;
  if (num_shards > 1) {
    shard_partition.emplace(
        std::vector<BoardId>(graph_->num_vertices(), 0), boards_per_shard);
  }

  // One shard = one full service stack (queues, breakers, retry timers,
  // ClusterSim) over its board group and arrival subset. With one shard
  // this is exactly the original single-loop service.
  auto run_shard = [&](size_t shard) {
    ShardStats& ss = shard_stats[shard];
    const BoardId first =
        static_cast<BoardId>(shard * boards_per_shard);
    // Global identity of the shard's local board b, for operator-facing
    // labels (trace, spans, annotations): a sharded run reports like an
    // unsharded one.
    auto global = [&](BoardId b) {
      return static_cast<BoardId>(first + b);
    };

    distributed::DistributedConfig cluster_config = config_.cluster;
    cluster_config.first_board = first;
    cluster_config.board = sinks.Shard(shard);
    obs::TraceRecorder* trace = cluster_config.board.trace;
    obs::SpanRecorder* spans = cluster_config.board.spans;
    obs::TimeSeriesRecorder* ts = cluster_config.board.timeseries;

    // Service-level series, recorded alongside the cluster-level ones
    // ClusterSim registers. All are registered here, never by traffic,
    // so the series set is identical across shard/thread splits.
    obs::Counter* ts_completed = nullptr;
    obs::Counter* ts_retries = nullptr;
    obs::Counter* ts_violations = nullptr;
    obs::Counter* ts_shed[3] = {};
    obs::Counter* ts_degraded[2] = {};
    obs::Gauge* ts_queued = nullptr;
    obs::WindowedHistogram* ts_latency = nullptr;
    if (ts != nullptr) {
      ts_completed = ts->GetCounter("svc.completed");
      ts_retries = ts->GetCounter("svc.retries");
      ts_violations = ts->GetCounter("svc.deadline_violations");
      ts_shed[0] = ts->GetCounter("svc.shed", {{"reason", "queue_full"}});
      ts_shed[1] = ts->GetCounter("svc.shed", {{"reason", "breaker_open"}});
      ts_shed[2] = ts->GetCounter("svc.shed", {{"reason", "deadline"}});
      ts_degraded[0] = ts->GetCounter("svc.degraded", {{"tier", "shorten"}});
      ts_degraded[1] = ts->GetCounter("svc.degraded", {{"tier", "uniform"}});
      ts_queued = ts->GetGauge("svc.queued");
      ts_latency = ts->GetHistogram("svc.latency_cycles");
    }

    const distributed::Partition* partition =
        num_shards == 1 ? partition_ : &*shard_partition;
    const uint32_t max_walkers =
        boards_per_shard * config_.cluster.inflight_walkers_per_board;
    ClusterSim sim(graph_, app_, partition, cluster_config, max_walkers);
    // Computes each attempt's path at dispatch, once its cap and step
    // kind are decided. A ring is not thread-safe: one per shard.
    core::PathRing ring(graph_, app_,
                        config_.cluster.board.sampler_parallelism);
    core::TicketPath path;

    // Per-board admission queue + circuit breaker.
    struct SBoard {
      std::vector<uint64_t> queue;  // query indices, EDF-popped
      BreakerState breaker = BreakerState::kClosed;
      uint32_t consecutive_failures = 0;
      Cycle open_until = 0;
      bool probe_inflight = false;  // half-open: one query probes the board
    };
    std::vector<SBoard> sboards(boards_per_shard);
    for (SBoard& sb : sboards) {
      sb.queue.reserve(config_.queue_capacity);
    }

    if (trace != nullptr) {
      for (BoardId b = 0; b < boards_per_shard; ++b) {
        trace->NameTrack(global(b), kServiceTrack, "service");
      }
    }
    auto trace_instant = [&](const char* name, BoardId b, Cycle at) {
      if (trace != nullptr && trace->accepting()) {
        trace->Instant(name, "service", global(b), kServiceTrack, at);
      }
    };

    // Settles a query's trace: closes any still-open queue span and the
    // root span, then retains-or-discards the spans per the flight
    // recorder mode. `outcome` must be a string literal.
    auto close_trace = [&](uint64_t qi, Cycle at, bool breached,
                           const char* outcome) {
      if (spans == nullptr) {
        return;
      }
      Rec& r = recs[qi];
      if (r.queue_span != 0) {
        spans->End(qi, r.queue_span, at);
        r.queue_span = 0;
      }
      spans->Attr(qi, r.root_span, "attempts", r.attempts);
      spans->End(qi, r.root_span, at);
      spans->CloseTrace(qi, arrivals[qi].arrival, at, breached, outcome);
    };

    auto shed = [&](uint64_t qi, BoardId b, Cycle at, QueryOutcome outcome) {
      Rec& r = recs[qi];
      LIGHTRW_CHECK(r.outcome == QueryOutcome::kPending);
      r.outcome = outcome;
      const int ri = outcome == QueryOutcome::kShedQueueFull ? 0
                     : outcome == QueryOutcome::kShedBreaker ? 1
                                                             : 2;
      const char* reason =
          ri == 0 ? "queue_full" : ri == 1 ? "breaker_open" : "deadline";
      if (ts != nullptr) {
        ts_shed[ri]->Increment();
      }
      trace_instant("shed", b, at);
      close_trace(qi, at, /*breached=*/true, reason);
    };

    // A query that cannot be served right now: re-admit after backoff if
    // budget remains, otherwise settle its terminal outcome.
    auto bounce = [&](uint64_t qi, BoardId b, Cycle at, Reject why) {
      Rec& r = recs[qi];
      // A stranded queue entry (breaker trip drains the queue) bounces
      // with its queue span still open; close it at the bounce cycle.
      if (spans != nullptr && r.queue_span != 0) {
        spans->End(qi, r.queue_span, at);
        r.queue_span = 0;
      }
      if (r.attempts <= config_.retry_budget) {
        ++ss.retries;
        if (ts_retries != nullptr) {
          ts_retries->Increment();
        }
        const Cycle backoff = config_.retry_backoff_cycles
                              << (r.attempts - 1);
        if (spans != nullptr) {
          const uint64_t bs = spans->Begin(qi, r.root_span, "backoff",
                                           "service", global(b), at);
          spans->End(qi, bs, at + backoff);
        }
        sim.ScheduleWake(MakeTag(kRetryKind, qi), at + backoff);
        return;
      }
      switch (why) {
        case Reject::kQueueFull:
          shed(qi, b, at, QueryOutcome::kShedQueueFull);
          break;
        case Reject::kBreakerOpen:
          shed(qi, b, at, QueryOutcome::kShedBreaker);
          break;
        case Reject::kWalkFailure:
          LIGHTRW_CHECK(recs[qi].outcome == QueryOutcome::kPending);
          recs[qi].outcome = QueryOutcome::kFailed;
          trace_instant("query_failed", b, at);
          close_trace(qi, at, /*breached=*/true, "failed");
          break;
      }
    };

    // Moves queued queries into free walker slots on board `b`,
    // earliest-deadline-first, applying degradation by queue congestion.
    auto dispatch = [&](BoardId b, Cycle at) {
      SBoard& sb = sboards[b];
      if (sb.breaker == BreakerState::kOpen) {
        return;
      }
      while (!sb.queue.empty() &&
             sim.InflightOn(b) < config_.cluster.inflight_walkers_per_board &&
             sim.free_slots() > 0) {
        if (sb.breaker == BreakerState::kHalfOpen && sb.probe_inflight) {
          return;  // one probe at a time until the breaker closes
        }
        // EDF: earliest absolute deadline wins; deadline-less queries go
        // last; arrival order breaks ties.
        const double fill = static_cast<double>(sb.queue.size()) /
                            static_cast<double>(config_.queue_capacity);
        size_t best = 0;
        Cycle best_deadline = std::numeric_limits<Cycle>::max();
        uint64_t best_qi = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < sb.queue.size(); ++i) {
          const uint64_t qi = sb.queue[i];
          const Cycle d = arrivals[qi].deadline > 0
                              ? arrivals[qi].deadline
                              : std::numeric_limits<Cycle>::max();
          if (d < best_deadline || (d == best_deadline && qi < best_qi)) {
            best = i;
            best_deadline = d;
            best_qi = qi;
          }
        }
        const uint64_t qi = sb.queue[best];
        sb.queue.erase(sb.queue.begin() + static_cast<ptrdiff_t>(best));
        if (ts_queued != nullptr) {
          ts_queued->Add(-1.0);
        }
        const ServiceQuery& sq = arrivals[qi];
        Rec& r = recs[qi];
        // The attempt leaves the queue here, whether it dispatches or is
        // shed for a passed deadline.
        if (spans != nullptr && r.queue_span != 0) {
          spans->End(qi, r.queue_span, at);
          r.queue_span = 0;
        }
        // A query whose deadline already passed would only waste the slot.
        if (sq.deadline > 0 && at >= sq.deadline) {
          shed(qi, b, at, QueryOutcome::kShedDeadline);
          continue;
        }
        path.ticket = qi;
        path.query = sq.query;
        r.shortened = false;
        r.uniform = false;
        if (config_.degrade_enabled && sq.best_effort) {
          if (fill >= kDegradeShortenOccupancy) {
            path.query.length = std::max(
                1u, static_cast<uint32_t>(
                        static_cast<double>(sq.query.length) *
                        kDegradeShortenFactor));
            r.shortened = true;
          }
          if (fill >= kDegradeUniformOccupancy) {
            r.uniform = true;
          }
          if (r.shortened || r.uniform) {
            const int ti = r.uniform ? 1 : 0;
            ++ss.degraded[ti];
            if (ts != nullptr) {
              ts_degraded[ti]->Increment();
            }
            trace_instant("degrade", b, at);
            if (spans != nullptr) {
              spans->Event(qi, r.root_span,
                           r.uniform ? "degrade_uniform" : "degrade_shorten",
                           at);
            }
          }
        }
        const Cycle delay = at - r.admitted_at;
        ss.queue_delay_cycles.Add(static_cast<double>(delay));
        if (sb.breaker == BreakerState::kHalfOpen) {
          sb.probe_inflight = true;
        }
        path.uniform = r.uniform;
        std::atomic<size_t> cursor{0};
        ring.Walk(config_.cluster.board.seed, {&path, 1}, cursor);
        WalkerOptions opts;
        opts.surface_failures = true;
        opts.parent_span = r.root_span;
        sim.Launch(path, b, at, opts);
      }
    };

    // Admission: pick a board, apply breaker + queue backpressure, enqueue.
    auto admit = [&](uint64_t qi, Cycle at) {
      Rec& r = recs[qi];
      ++r.attempts;
      const ServiceQuery& sq = arrivals[qi];
      // The query's root span opens on first admission (at = arrival) and
      // stays open across retries until the terminal event closes the
      // trace.
      if (spans != nullptr && r.attempts == 1) {
        r.root_span = spans->Begin(qi, 0, "query", "service", -1, at);
      }
      // Routing sees no failure oracle: a dead board is discovered the
      // same way a sick one is — through failures tripping its breaker.
      BoardId b;
      if (config_.cluster.replicate_graph) {
        // Any board can serve any vertex: join the shortest line among
        // boards whose breaker admits traffic; ties break low.
        bool found = false;
        uint64_t best_load = 0;
        b = 0;
        for (BoardId cand = 0; cand < boards_per_shard; ++cand) {
          if (sboards[cand].breaker == BreakerState::kOpen) {
            continue;
          }
          const uint64_t load =
              sboards[cand].queue.size() + sim.InflightOn(cand);
          if (!found || load < best_load) {
            found = true;
            best_load = load;
            b = cand;
          }
        }
        if (!found) {
          bounce(qi, 0, at, Reject::kBreakerOpen);
          return;
        }
      } else {
        // Prefer the partition owner; while its breaker is open, fail
        // over to a deterministic alternate board (the walker migrates
        // back to owned territory on its first steps). Partitioned mode
        // implies a single shard, so the shard sees every board.
        b = partition_->OwnerOf(sq.query.start);
        if (sboards[b].breaker == BreakerState::kOpen &&
            boards_per_shard > 1) {
          const BoardId shift = static_cast<BoardId>(
              1 + sq.query.start % (boards_per_shard - 1));
          b = static_cast<BoardId>((b + shift) % boards_per_shard);
        }
      }
      SBoard& sb = sboards[b];
      // Cooldown may have elapsed without the wake having fired yet.
      if (sb.breaker == BreakerState::kOpen && at >= sb.open_until) {
        sb.breaker = BreakerState::kHalfOpen;
        sb.probe_inflight = false;
      }
      if (sb.breaker == BreakerState::kOpen) {
        bounce(qi, b, at, Reject::kBreakerOpen);
        return;
      }
      if (sb.queue.size() >= config_.queue_capacity) {
        bounce(qi, b, at, Reject::kQueueFull);
        return;
      }
      sb.queue.push_back(qi);
      r.admitted_at = at;
      if (ts_queued != nullptr) {
        ts_queued->Add(1.0);
      }
      if (spans != nullptr) {
        r.queue_span =
            spans->Begin(qi, r.root_span, "queue", "service", global(b), at);
      }
      if (!ss.queue_depth.empty()) {
        ss.queue_depth[b].Add(static_cast<double>(sb.queue.size()));
      }
      dispatch(b, at);
    };

    sim.set_on_retire([&](const WalkerEnd& end,
                          std::vector<VertexId>&& path) {
      const uint64_t qi = end.ticket;
      const BoardId b = end.board;
      SBoard& sb = sboards[b];
      Rec& r = recs[qi];
      const ServiceQuery& sq = arrivals[qi];
      if (sb.breaker == BreakerState::kHalfOpen && sb.probe_inflight) {
        sb.probe_inflight = false;  // this retire is the probe's verdict
      }
      if (end.Failed()) {
        ++sb.consecutive_failures;
        const bool trip =
            sb.breaker == BreakerState::kHalfOpen ||
            (sb.breaker == BreakerState::kClosed &&
             sb.consecutive_failures >= kBreakerFailureThreshold);
        if (trip) {
          sb.breaker = BreakerState::kOpen;
          sb.open_until = end.at + kBreakerCooldownCycles;
          ++ss.breaker_trips[b];
          trace_instant("breaker_trip", b, end.at);
          if (ts != nullptr) {
            ts->Annotate("breaker_trip", end.at,
                         "board " + std::to_string(global(b)));
          }
          sim.ScheduleWake(MakeTag(kBreakerKind, b), sb.open_until);
          // Everything still queued behind the tripped board re-routes
          // (or retries into the cooldown) instead of waiting it out.
          std::vector<uint64_t> stranded = std::move(sb.queue);
          sb.queue.clear();
          if (ts_queued != nullptr) {
            ts_queued->Add(-static_cast<double>(stranded.size()));
          }
          for (const uint64_t qj : stranded) {
            bounce(qj, b, end.at, Reject::kBreakerOpen);
          }
        }
        bounce(qi, b, end.at, Reject::kWalkFailure);
      } else {
        sb.consecutive_failures = 0;
        if (sb.breaker == BreakerState::kHalfOpen) {
          sb.breaker = BreakerState::kClosed;  // probe succeeded
        }
        LIGHTRW_CHECK(r.outcome == QueryOutcome::kPending);
        r.outcome = QueryOutcome::kCompleted;
        r.path = std::move(path);
        const Cycle latency = end.at - sq.arrival;
        ss.latency_cycles.Add(static_cast<double>(latency));
        const bool late = sq.deadline > 0 && end.at > sq.deadline;
        if (late) {
          ++ss.deadline_violations;
        }
        if (ts != nullptr) {
          ts_completed->Increment();
          // The worst sample of a window exemplars back to the query's
          // root span (trace id = qi), which is still open here.
          ts_latency->Observe(static_cast<double>(latency), qi, r.root_span);
          if (late) {
            ts_violations->Increment();
          }
        }
        close_trace(qi, end.at, /*breached=*/late,
                    late ? "deadline_missed" : "completed");
      }
      dispatch(b, end.at);
    });

    sim.set_on_wake([&](uint64_t tag, Cycle at) {
      const uint64_t kind = tag >> kTagKindShift;
      const uint64_t payload = tag & kTagPayloadMask;
      switch (kind) {
        case kArrivalKind:
        case kRetryKind:
          admit(payload, at);
          break;
        case kBreakerKind: {
          SBoard& sb = sboards[payload];
          if (sb.breaker == BreakerState::kOpen && at >= sb.open_until) {
            sb.breaker = BreakerState::kHalfOpen;
            sb.probe_inflight = false;
            dispatch(static_cast<BoardId>(payload), at);
          }
          break;
        }
        default:
          LIGHTRW_CHECK(false);
      }
    });

    for (uint64_t i = shard; i < arrivals.size(); i += num_shards) {
      sim.ScheduleWake(MakeTag(kArrivalKind, i), arrivals[i].arrival);
    }
    sim.Drain();
    sim.Finalize(&ss.cluster);
  };  // run_shard

  const uint32_t threads =
      SimThreadPool::ResolveThreads(config_.cluster.num_threads);
  SimThreadPool::ParallelFor(threads, num_shards, run_shard);
  sinks.Merge();

  // Merge in shard order: sums and sample appends are fixed by the shard
  // decomposition, never by thread timing.
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardStats& ss = shard_stats[s];
    stats.retries += ss.retries;
    for (const uint64_t trips : ss.breaker_trips) {
      stats.breaker_trips += trips;
    }
    stats.deadline_violations += ss.deadline_violations;
    stats.queue_delay_cycles.Merge(ss.queue_delay_cycles);
    stats.latency_cycles.Merge(ss.latency_cycles);
    stats.cluster.Accumulate(ss.cluster);
  }
  stats.cluster.seconds = static_cast<double>(stats.cluster.cycles) /
                          config_.cluster.board.dram.clock_hz;

  // Settle the books: every query has exactly one terminal outcome.
  outcomes_.clear();
  outcomes_.reserve(recs.size());
  degradations_.assign(recs.size(), Degradation::kNone);
  for (size_t qi = 0; qi < recs.size(); ++qi) {
    const Rec& r = recs[qi];
    LIGHTRW_CHECK(r.outcome != QueryOutcome::kPending);
    outcomes_.push_back(r.outcome);
    switch (r.outcome) {
      case QueryOutcome::kCompleted:
        ++stats.completed;
        degradations_[qi] = r.uniform     ? Degradation::kShortenedUniform
                            : r.shortened ? Degradation::kShortened
                                          : Degradation::kNone;
        if (r.shortened || r.uniform) {
          ++stats.degraded;
        }
        if (r.shortened) {
          ++stats.degraded_shortened;
        }
        if (r.uniform) {
          ++stats.degraded_uniform;
        }
        break;
      case QueryOutcome::kShedQueueFull:
        ++stats.shed_queue_full;
        break;
      case QueryOutcome::kShedBreaker:
        ++stats.shed_breaker;
        break;
      case QueryOutcome::kShedDeadline:
        ++stats.shed_deadline;
        break;
      case QueryOutcome::kFailed:
        ++stats.failed;
        break;
      case QueryOutcome::kPending:
        break;
    }
  }
  LIGHTRW_CHECK_EQ(stats.completed + stats.Shed() + stats.failed,
                   stats.offered);

  // Publish the service metrics from the merged totals. Histograms
  // replay their samples in shard order, so the exposition (including
  // its order-sensitive float sums) matches a single-shard,
  // single-thread run byte for byte. A metric with nothing to count is
  // not created.
  if (metrics != nullptr) {
    auto count = [&](const char* name, const obs::Labels& labels,
                     uint64_t n) {
      if (n > 0) {
        metrics->GetCounter(name, labels)->Increment(n);
      }
    };
    auto replay = [&](const char* name, const obs::Labels& labels,
                      const SampleStats& samples) {
      if (samples.count() > 0) {
        obs::Histogram* h = metrics->GetHistogram(name, labels);
        for (const double v : samples.raw_samples()) {
          h->Observe(v);
        }
      }
    };
    replay("service.queue_delay_cycles", {}, stats.queue_delay_cycles);
    replay("service.latency_cycles", {}, stats.latency_cycles);
    count("service.retries", {}, stats.retries);
    count("service.shed", {{"reason", "queue_full"}}, stats.shed_queue_full);
    count("service.shed", {{"reason", "breaker_open"}}, stats.shed_breaker);
    count("service.shed", {{"reason", "deadline"}}, stats.shed_deadline);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const ShardStats& ss = shard_stats[s];
      count("service.degraded", {{"tier", "shorten"}}, ss.degraded[0]);
      count("service.degraded", {{"tier", "uniform"}}, ss.degraded[1]);
      for (BoardId b = 0; b < boards_per_shard; ++b) {
        const obs::Labels board = {
            {"board", std::to_string(s * boards_per_shard + b)}};
        replay("service.queue_depth", board, ss.queue_depth[b]);
        count("service.breaker_trips", board, ss.breaker_trips[b]);
      }
    }
  }
  stats.cluster.queries = stats.completed;
  stats.cycles = stats.cluster.cycles;
  stats.seconds = stats.cluster.seconds;

  if (output != nullptr) {
    for (Rec& r : recs) {
      output->vertices.insert(output->vertices.end(), r.path.begin(),
                              r.path.end());
      output->offsets.push_back(
          static_cast<uint32_t>(output->vertices.size()));
    }
  }
  return stats;
}

}  // namespace lightrw::service
