// Extension experiment (robustness): self-healing throughput recovery.
// Sweeps hot-spare count x rebuild bandwidth x scheduled board deaths on
// a replicated 4-board cluster and reports how fast and how completely
// throughput returns after the spare rebuilds the dead board's share.
//
// Expected shape: with no spares a death permanently degrades the
// cluster to the survivors (~3/4 throughput); with a spare the cluster
// returns to >= 95% of fault-free throughput once the rebuild completes,
// and the recovery time scales inversely with the rebuild bandwidth.
// The p99 dip quantifies the latency cost of the outage window
// (detection + checkpoint replay for the walkers caught on the dead
// board).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "obs/span.h"
#include "reliability/membership.h"

namespace lightrw::bench {
namespace {

using distributed::DistributedConfig;
using distributed::DistributedEngine;
using distributed::MakePartition;
using distributed::Partition;
using distributed::PartitionStrategy;

constexpr uint32_t kBoards = 4;
// Node2vec with mid-length walks keeps the cluster busy for ~2M cycles,
// so a mid-run death plus a full rebuild still leaves dozens of
// steady-state windows on both sides of the outage.
constexpr uint32_t kWalkLength = 24;

DistributedConfig BaseConfig() {
  DistributedConfig config;
  config.board = DefaultAccelConfig();
  config.board.num_instances = 1;
  // Replicated mode isolates the self-healing machinery: launches to the
  // dead board redirect to its serving board, so throughput tracks the
  // alive board count directly with no migration noise.
  config.replicate_graph = true;
  return config;
}

struct RunMetrics {
  uint64_t cycles = 0;
  double msteps_per_s = 0.0;
  // (completion cycle, duration) per query, sorted by completion cycle.
  std::vector<std::pair<uint64_t, uint64_t>> completions;
  distributed::DistributedRunStats stats;
};

uint64_t Percentile99(std::vector<uint64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = (values.size() * 99 + 99) / 100 - 1;
  return values[std::min(idx, values.size() - 1)];
}

// Completions per kilocycle over (after, makespan]. Batch completions
// arrive in bursty cohorts (walkers launch together and walk lengths
// cluster), so rates over an interval are the stable estimator — window
// medians are not.
double RateAfter(const RunMetrics& m, uint64_t after) {
  if (m.cycles <= after) return 0.0;
  uint64_t count = 0;
  for (const auto& [end, duration] : m.completions) count += end > after;
  return 1000.0 * static_cast<double>(count) /
         static_cast<double>(m.cycles - after);
}

// p99 of the durations of queries completing in [lo, hi].
uint64_t P99In(const RunMetrics& m, uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> durations;
  for (const auto& [end, duration] : m.completions) {
    if (end >= lo && end <= hi) durations.push_back(duration);
  }
  return Percentile99(std::move(durations));
}

RunMetrics RunOnce(const DistributedConfig& base) {
  const graph::CsrGraph& g = StandIn(graph::Dataset::kLiveJournal);
  const auto app = MakeNode2Vec();
  const auto queries = StandardQueries(g, kWalkLength);
  const Partition partition =
      MakePartition(g, kBoards, PartitionStrategy::kHash);
  obs::SpanRecorder spans;
  DistributedConfig config = base;
  config.board.spans = &spans;
  DistributedEngine engine(&g, app.get(), &partition, config);
  RunMetrics m;
  m.stats = engine.Run(queries).value();
  m.cycles = m.stats.cycles;
  m.msteps_per_s = m.stats.StepsPerSecond() / 1e6;
  for (const obs::Span& span : spans.Spans()) {
    if (span.parent != 0 || span.open) continue;  // one root per query
    m.completions.emplace_back(span.end, span.end - span.start);
  }
  std::sort(m.completions.begin(), m.completions.end());
  return m;
}

int Main() {
  Table table(
      "Extension: self-healing recovery (spares x rebuild bandwidth x "
      "board deaths; ratios vs the fault-free baseline)",
      {{"spares", "spares", 7},
       {"deaths", "deaths", 7},
       {"rebuild_bytes_per_cycle", "bw", 6, Num(0)},
       {"msteps_per_s", "Msteps/s", 10},
       {"overhead_pct", "overhead", 10, Num(1, "%")},
       {"recovery_time_cycles", "recovery", 10},
       {"post_throughput_ratio", "post ratio", 11},
       {"p99_dip_ratio", "p99 dip", 9},
       {"spares_activated", ""},
       {"rebuilds_completed", "rebuilt", 7},
       {"spare_exhaustions", ""},
       {"walkers_lost", "lost", 7}});
  const struct {
    uint32_t spares;
    uint32_t deaths;
    double bw;
  } kPoints[] = {
      {0, 0, 64.0},  // fault-free reference row
      {0, 1, 64.0},  // death with no spare: permanent degradation
      {1, 1, 64.0},  // the headline self-healing configuration
      {2, 1, 64.0},
      {0, 2, 64.0},
      {1, 2, 64.0},  // second death exhausts the pool
      {2, 2, 64.0},
      {1, 1, 4.0},   // slow rebuild: longer outage, same endpoint
  };
  // Fault-free reference: cycles place the deaths mid-run, steady
  // throughput and p99 anchor the recovery ratios.
  const RunMetrics baseline = RunOnce(BaseConfig());
  const uint64_t first_death = baseline.cycles / 4;
  const uint64_t second_death = first_death + (1 << 16);
  for (const auto& p : kPoints) {
    DistributedConfig config = BaseConfig();
    config.num_spare_boards = p.spares;
    config.rebuild_bytes_per_cycle = p.bw;
    if (p.deaths > 0) {
      config.board.faults.enabled = true;
      config.board.faults.seed = kBenchSeed;
      config.board.faults.checkpoint_interval_cycles = 1 << 12;
      config.board.faults.board_deaths.push_back({first_death, 1});
      if (p.deaths > 1) {
        config.board.faults.board_deaths.push_back({second_death, 2});
      }
    }
    const RunMetrics m = RunOnce(config);

    // Recovery time: first scheduled death to the last completed
    // ownership transfer (the final rebuilding -> alive transition).
    uint64_t recovered_at = 0;
    for (const auto& t : m.stats.membership) {
      if (t.to == reliability::BoardState::kAlive) {
        recovered_at = std::max(recovered_at, t.cycle);
      }
    }

    // Throughput after the cluster settled: after the last rebuild when
    // one completed, otherwise after the last death (degraded mode).
    // Compare the remaining-work completion rate against the baseline
    // measured from the SAME cycle, so both runs see the same mix of
    // steady-state and drain-tail phases.
    const uint64_t last_death = p.deaths > 1 ? second_death : first_death;
    const uint64_t settled = std::max(recovered_at, last_death);
    const double base_rate = RateAfter(baseline, settled);

    // Latency dip: p99 of queries completing during the outage window
    // vs the baseline's p99 over the same cycles. Without a rebuild the
    // outage never ends, so the window runs to the end of the run.
    double p99_dip_ratio = 1.0;
    if (p.deaths > 0) {
      const uint64_t outage_end = recovered_at > 0 ? recovered_at : m.cycles;
      const uint64_t dip = P99In(m, first_death, outage_end);
      const uint64_t base_p99 = P99In(baseline, first_death, outage_end);
      p99_dip_ratio =
          base_p99 > 0 && dip > 0
              ? static_cast<double>(dip) / static_cast<double>(base_p99)
              : 1.0;
    }
    table.Add({uint64_t{p.spares}, uint64_t{p.deaths}, p.bw, m.msteps_per_s,
               100.0 * (static_cast<double>(m.cycles) /
                            static_cast<double>(baseline.cycles) -
                        1.0),
               recovered_at > 0 ? recovered_at - first_death : 0,
               base_rate > 0 ? RateAfter(m, settled) / base_rate : 0.0,
               p99_dip_ratio, m.stats.reliability.spares_activated,
               m.stats.reliability.rebuilds_completed,
               m.stats.reliability.spare_exhaustions,
               m.stats.reliability.walkers_lost});
  }
  return Report("ext_self_healing", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
