// WalkService: deterministic simulated-time serving front end over the
// distributed cluster simulation.
//
// An open-loop arrival stream (service::GenerateArrivals) is admitted
// into bounded per-board queues and dispatched earliest-deadline-first
// onto ClusterSim walker slots. Overload is handled in four layers, in
// escalation order:
//
//   1. backpressure  bounded admission queues; a full queue bounces the
//                    query instead of growing without bound
//   2. retries       a bounced or failed query is re-admitted after an
//                    exponential backoff, up to `retry_budget` times —
//                    board failovers (reliability::FaultConfig) surface
//                    here as retryable failures, so the two compose
//   3. breaker       a per-board circuit breaker trips after four
//                    consecutive failures, rejects admissions while
//                    open, and half-opens after a cooldown to probe with
//                    a single query
//   4. degradation   best-effort queries dispatched from a congested
//                    queue are shortened and/or degraded from weighted
//                    (PWRS) to uniform stepping, trading result quality
//                    for per-step cost; every degraded query is recorded
//
// Everything runs on the simulated clock and every decision draws from
// seeded generators: the same config yields byte-identical admit, shed,
// and degrade counts. At low load with no faults the service produces
// exactly the walks DistributedEngine::Run produces for the same query
// list (walk sampling is keyed on the query index — see cluster_sim.h).

#ifndef LIGHTRW_SERVICE_WALK_SERVICE_H_
#define LIGHTRW_SERVICE_WALK_SERVICE_H_

#include <cstdint>
#include <vector>

#include "baseline/engine.h"
#include "common/histogram.h"
#include "common/status.h"
#include "distributed/cluster_sim.h"
#include "distributed/partition.h"
#include "lightrw/report.h"
#include "service/arrival.h"

namespace lightrw::service {

struct ServiceConfig {
  distributed::DistributedConfig cluster;
  ArrivalConfig arrivals;
  // Bounded per-board admission queue (layer 1).
  uint32_t queue_capacity = 64;
  // Re-admissions allowed per query after a bounce or a failure
  // (layer 2); 0 disables retries. Attempt n backs off
  // retry_backoff_cycles << (n - 1).
  uint32_t retry_budget = 2;
  uint64_t retry_backoff_cycles = 512;
  // Graceful degradation (layer 4): a best-effort query dispatched from
  // a congested queue is shortened, and from a more congested one also
  // stepped uniformly instead of by PWRS (thresholds in walk_service.cc).
  bool degrade_enabled = true;
  // Independent admission shards, each owning an equal board group plus
  // the arrival subset {i : i mod shards == shard} and its own queues,
  // breakers, and retry timers. Shards share nothing while running and
  // merge in shard order, so results are fixed by this value alone (the
  // thread count only schedules shards; see common/sim_thread_pool.h).
  // Values > 1 require replicate_graph (any shard can serve any vertex)
  // and a fault config that can inject nothing (failover couples
  // boards; see FaultConfig::AnyFaultsPossible), and must divide
  // the board count evenly. 1 = the single global event loop.
  uint32_t admission_shards = 1;
};

// Non-OK for out-of-range fields (each named in the message). Also
// validates the nested cluster and arrival configurations.
Status ValidateServiceConfig(const ServiceConfig& config);

// Terminal disposition of one query. Exactly one applies: a query is
// never both shed and completed.
enum class QueryOutcome : uint8_t {
  kPending = 0,       // not yet decided (never visible after Run)
  kCompleted,         // walk delivered (possibly degraded or late)
  kShedQueueFull,     // bounced by full queues until the budget ran out
  kShedBreaker,       // bounced by open breakers until the budget ran out
  kShedDeadline,      // deadline already passed at dispatch time
  kFailed,            // walk attempts kept failing (faults) past budget
};

// How the service degraded the walk it delivered for a query. A
// uniform walk is always shortened too.
enum class Degradation : uint8_t {
  kNone = 0,          // the requested walk, or nothing delivered
  kShortened,         // cut to a fraction of the requested length
  kShortenedUniform,  // shortened, and each step picked uniformly
};

struct ServiceRunStats {
  uint64_t offered = 0;    // arrivals generated
  uint64_t completed = 0;  // walks delivered
  uint64_t failed = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_breaker = 0;
  uint64_t shed_deadline = 0;
  // Completed walks that finished after their deadline.
  uint64_t deadline_violations = 0;
  uint64_t retries = 0;  // re-admissions scheduled
  // Queries whose delivered walk was degraded (uniform ⊆ shortened ⊆
  // degraded; degraded counts each query once).
  uint64_t degraded = 0;
  uint64_t degraded_shortened = 0;
  uint64_t degraded_uniform = 0;
  uint64_t breaker_trips = 0;
  uint64_t cycles = 0;  // simulated makespan
  double seconds = 0.0;
  // Admission-to-dispatch delay and arrival-to-completion latency of
  // dispatched / completed queries, in cycles.
  SampleStats queue_delay_cycles;
  SampleStats latency_cycles;
  // Underlying cluster datapath stats (dram, network, reliability).
  distributed::DistributedRunStats cluster;

  uint64_t Shed() const {
    return shed_queue_full + shed_breaker + shed_deadline;
  }
  double ShedRate() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(Shed()) /
                              static_cast<double>(offered);
  }
  // Fraction of delivered walks that missed their deadline. Defined over
  // completions, not offers: shed queries are already accounted by
  // ShedRate, and a delivered-but-late result is the distinct failure
  // mode this measures.
  double ViolationRate() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_violations) /
                                static_cast<double>(completed);
  }
  // Completions that met their deadline, per simulated second.
  double GoodputPerSecond() const {
    return seconds > 0.0
               ? static_cast<double>(completed - deadline_violations) /
                     seconds
               : 0.0;
  }
  core::SloSummary Slo() const;
};

class WalkService {
 public:
  // All referenced objects must outlive the service.
  WalkService(const graph::CsrGraph* graph, const apps::WalkApp* app,
              const distributed::Partition* partition,
              const ServiceConfig& config);

  // Generates the arrival stream and serves it to completion. Optional
  // `output` receives one path per offered query in arrival order (shed
  // and failed queries contribute empty paths).
  StatusOr<ServiceRunStats> Run(baseline::WalkOutput* output = nullptr);

  // Per-query dispositions of the last Run, indexed by arrival order.
  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }
  // The degradation of each query's delivered walk in the last Run,
  // indexed by arrival order; kNone for a query that was not completed.
  const std::vector<Degradation>& degradations() const {
    return degradations_;
  }

 private:
  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  const distributed::Partition* partition_;
  ServiceConfig config_;
  std::vector<QueryOutcome> outcomes_;
  std::vector<Degradation> degradations_;
};

}  // namespace lightrw::service

#endif  // LIGHTRW_SERVICE_WALK_SERVICE_H_
