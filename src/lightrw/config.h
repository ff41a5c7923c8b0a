// Configuration of the modeled LightRW accelerator.

#ifndef LIGHTRW_LIGHTRW_CONFIG_H_
#define LIGHTRW_LIGHTRW_CONFIG_H_

#include <cstdint>

#include "hwsim/dram.h"
#include "reliability/fault_injector.h"

namespace lightrw::obs {
class MetricsRegistry;
class SpanRecorder;
class TimeSeriesRecorder;
class TraceRecorder;
}  // namespace lightrw::obs

namespace lightrw::core {

// Latency (cycles) for a step's data to traverse the module pipeline
// (query controller -> loader -> burst engine -> updater -> sampler).
inline constexpr uint32_t kPipelineDepthCycles = 24;

// Which row_index cache the Neighbor Info Loader uses (paper §5.1).
enum class CacheKind {
  kNone,         // every lookup goes to DRAM (the DAC-disabled ablation)
  kDirectMapped, // classic direct-mapped replacement (Fig. 11's DMC)
  kDegreeAware,  // replace only if the incoming vertex has higher degree
  kLru,          // 4-way set-associative, least-recently-used eviction
  kFifo,         // 4-way set-associative, first-in-first-out eviction
};

// Burst scheduling strategy of the dynamic burst engine (paper §5.2),
// written b{short}+b{long} in the evaluation. long_beats == 0 disables the
// long pipeline (the b1+b0 baseline: everything moves in short bursts).
struct BurstStrategy {
  uint32_t short_beats = 1;
  uint32_t long_beats = 32;  // b1+b32, the best strategy found in Fig. 12
};

// DRAM configuration used by the accelerator instances: bank-level
// parallelism lets the short bursts of one adjacency fetch overlap their
// issue gaps, as multiple outstanding AXI reads do on the real board.
inline hwsim::DramConfig DefaultAcceleratorDram() {
  hwsim::DramConfig dram;
  dram.num_banks = 8;
  return dram;
}

// DRAM configuration modeling one HBM2 pseudo-channel (the deployment of
// Su et al. and the U280 path the paper's future work points at): many
// narrow channels instead of four wide DDR4 ones. Per pseudo-channel:
// 32-byte bus, ~14.4 GB/s, deeper relative access latency.
inline hwsim::DramConfig HbmPseudoChannelDram() {
  hwsim::DramConfig dram;
  dram.bus_bytes = 32;
  dram.issue_gap_cycles = 16;
  dram.access_latency_cycles = 160;
  dram.num_banks = 8;
  return dram;
}

struct AcceleratorConfig {
  // Lanes of the parallel WRS sampler (vertices consumed per cycle).
  uint32_t sampler_parallelism = 16;

  // Enables the fine-grained WRS pipeline. When false the instance models
  // the staged ThunderRW-style flow on FPGA: weight buffer and sampling
  // table round-trip through DRAM and the stages execute back-to-back
  // (the WRS-disabled ablation of Fig. 13).
  bool enable_wrs_pipeline = true;

  BurstStrategy burst;
  CacheKind cache_kind = CacheKind::kDegreeAware;
  // Row cache capacity in vertices (paper evaluates 2^12).
  uint32_t cache_entries = 4096;

  // Capacity (in edges) of the on-chip buffer holding the previous step's
  // adjacency for Node2Vec's membership tests. Walks whose previous vertex
  // exceeds this re-fetch N(prev) from DRAM.
  uint32_t prev_neighbor_buffer_edges = 4096;

  // Queries resident in one instance's pipeline at a time. LightRW keeps
  // many walks in flight so DRAM latency of one walk overlaps with
  // compute of others.
  uint32_t inflight_queries = 64;

  // LightRW instances; each owns one DRAM channel and a private graph copy
  // (paper Fig. 9; the U250 has 4 channels).
  uint32_t num_instances = 4;

  // Host worker threads simulating the instances concurrently (each
  // instance is an independent shard), or FunctionalEngine's path pass
  // (a path depends only on its ticket); results are bit-identical for
  // every thread count. 0 = SimThreadPool::DefaultThreads(), i.e. the
  // LIGHTRW_SIM_THREADS environment or the tools' --threads flag.
  uint32_t num_threads = 0;

  hwsim::DramConfig dram = DefaultAcceleratorDram();

  uint64_t seed = 42;

  // Fault-injection schedule and recovery parameters (src/reliability/).
  // Disabled by default: the engines then consume no fault streams and
  // behave bit-identically to a build without the subsystem. The same
  // block configures link faults and board failures when this config is
  // used as the per-board configuration of a DistributedEngine.
  reliability::FaultConfig faults;

  // Records per-query latency in cycles (Fig. 15).
  bool collect_latency = false;

  // Optional observability sinks (src/obs/); not owned, may be null, and
  // must outlive the engine run. The metrics registry receives
  // per-instance counters (cache, burst, DRAM, per-stage cycles); the
  // trace recorder receives simulated-cycle pipeline events.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  // Per-query span recorder: engines open a "walk" span per walker
  // attempt (trace id = ticket) carrying cycle-stage attribution attrs
  // and fault events; the service layer wraps those in query-lifecycle
  // spans. Same ownership rules as the other sinks.
  obs::SpanRecorder* spans = nullptr;
  // Simulated-time telemetry: engines update the recorder's live
  // registry on their hot paths (gated on this pointer, so a null
  // recorder costs one branch) and drive its window clock from their
  // event loops. Same ownership rules as the other sinks.
  obs::TimeSeriesRecorder* timeseries = nullptr;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_CONFIG_H_
