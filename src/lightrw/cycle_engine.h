// Cycle-approximate LightRW performance model.
//
// This is the stand-in for the Alveo U250 hardware: a deterministic
// event-driven simulation of the accelerator of paper Fig. 3. Each
// instance drives one BoardStepModel (step_model.h: a DRAM channel, a
// row-index cache, a dynamic burst engine and a k-lane WRS sampling
// pipeline). Queries are kept in flight `inflight_queries` at a time so
// DRAM latency of one walk overlaps with the compute of others, and
// every DRAM byte, cache probe, and burst command is counted.
//
// The engine simultaneously produces real walks (same sampling semantics
// as FunctionalEngine) and the simulated kernel time in cycles; simulated
// seconds = cycles / clock (300 MHz by default).

#ifndef LIGHTRW_LIGHTRW_CYCLE_ENGINE_H_
#define LIGHTRW_LIGHTRW_CYCLE_ENGINE_H_

#include <cstdint>
#include <span>

#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "common/histogram.h"
#include "graph/csr.h"
#include "hwsim/dram.h"
#include "lightrw/config.h"
#include "lightrw/step_model.h"

namespace lightrw::core {

using apps::WalkQuery;
using baseline::WalkOutput;

struct AccelRunStats {
  // Simulated kernel makespan: max over instances, in kernel cycles and
  // seconds. Excludes PCIe transfer (modeled separately, Table 4).
  uint64_t cycles = 0;
  double seconds = 0.0;

  uint64_t queries = 0;
  uint64_t steps = 0;
  uint64_t edges_examined = 0;

  hwsim::DramStats dram;   // summed over instances
  CacheStats cache;        // summed over instances
  BurstStats burst;        // summed over instances
  StageCycleStats stage;   // summed over instances
  uint64_t prev_refetches = 0;  // Node2Vec buffer-overflow re-fetches

  // Injected-fault and recovery accounting (src/reliability/), summed
  // over instances. All zero when config.faults is disabled. A walk hit
  // by an uncorrectable DRAM error past its retry budget retires
  // truncated and is counted in reliability.walks_failed.
  reliability::ReliabilityStats reliability;

  // Per-query latency in cycles (populated if config.collect_latency).
  SampleStats query_latency_cycles;

  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
  double EffectiveBandwidth() const {
    return seconds > 0.0 ? static_cast<double>(dram.bytes) / seconds : 0.0;
  }
};

// The simulated accelerator. Queries are distributed round-robin over the
// configured instances; each instance is simulated independently (private
// channel, cache, graph copy) and the makespan is the slowest instance.
class CycleEngine {
 public:
  // `graph` and `app` must outlive the engine.
  CycleEngine(const graph::CsrGraph* graph, const apps::WalkApp* app,
              const AcceleratorConfig& config);

  const AcceleratorConfig& config() const { return config_; }

  // Simulates all queries. If `output` is non-null, one path per query
  // is appended in input order (path i starts at queries[i].start).
  AccelRunStats Run(std::span<const WalkQuery> queries,
                    WalkOutput* output = nullptr);

 private:
  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  AcceleratorConfig config_;
};

// The instance loop and multi-instance driver behind CycleEngine::Run,
// with every step fetched under `policy`. Weighted policies sample with
// the k-lane PWRS; the uniform ones pick a uniform neighbor from a
// per-instance stream. UniformCycleEngine runs this with
// FetchPolicy::kUniformRecord.
AccelRunStats RunAcceleratorInstances(const graph::CsrGraph& graph,
                                      const apps::WalkApp& app,
                                      const AcceleratorConfig& config,
                                      FetchPolicy policy,
                                      std::span<const WalkQuery> queries,
                                      WalkOutput* output);

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_CYCLE_ENGINE_H_
