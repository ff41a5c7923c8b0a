// Per-step timing of one LightRW accelerator datapath (paper Fig. 3).
//
// A BoardStepModel owns one instance's (or one cluster board's) DRAM
// channel, row-index cache, dynamic burst engine and the clock of the
// shared k-lane Weight Updater + WRS Sampler. The engines own walk
// state, sampling and event scheduling; they ask the model when each of
// a step's two phases completes and where its cycles went:
//
//   Info   the Neighbor Info Loader's row-index lookup(s) through the
//          cache, issued when the step starts;
//   Fetch  the adjacency stream (plus Node2Vec's prev-list refetch),
//          weight update and sampling, issued once the row is known.
//
// CycleEngine instances and ClusterSim boards drive the same model, so a
// 1-board fault-free ClusterSim and a 1-instance CycleEngine produce the
// same cycles for the same walks (tests/step_model_test.cc).

#ifndef LIGHTRW_LIGHTRW_STEP_MODEL_H_
#define LIGHTRW_LIGHTRW_STEP_MODEL_H_

#include <cstdint>
#include <memory>

#include "apps/walk_app.h"
#include "graph/csr.h"
#include "hwsim/dram.h"
#include "lightrw/burst_engine.h"
#include "lightrw/config.h"
#include "lightrw/vertex_cache.h"

namespace lightrw::core {

// Cycle attribution: where each in-flight step's simulated time went.
// Summed over steps (and slots, instances or walkers) these are
// slot-cycles — many walks are in flight at once, so the total can far
// exceed the makespan; the *shares* say which stage dominates.
struct StageCycleStats {
  uint64_t info_cycles = 0;      // row-index lookup: cache probe + DRAM
  uint64_t fetch_cycles = 0;     // adjacency stream through the burst engine
  uint64_t sampler_cycles = 0;   // sampling tail after the last data beat
  uint64_t pipeline_cycles = 0;  // fixed module-pipeline traversal latency

  StageCycleStats& operator+=(const StageCycleStats& o) {
    info_cycles += o.info_cycles;
    fetch_cycles += o.fetch_cycles;
    sampler_cycles += o.sampler_cycles;
    pipeline_cycles += o.pipeline_cycles;
    return *this;
  }
  uint64_t Total() const {
    return info_cycles + fetch_cycles + sampler_cycles + pipeline_cycles;
  }
  double Share(uint64_t part) const {
    const uint64_t total = Total();
    return total == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(total);
  }
};

// How a step fetches its adjacency and picks the next vertex. Each policy
// is selected by an existing input, never by a knob of its own.
enum class FetchPolicy {
  // Fine-grained PWRS pipeline: the k-lane sampler consumes the adjacency
  // as it streams in (the default design).
  kPipelined,
  // Staged ThunderRW-style flow on chip (enable_wrs_pipeline = false):
  // weight buffer and sampling table round-trip through DRAM and the
  // stages run back to back (the WRS-disabled ablation of Fig. 13).
  kStaged,
  // Degraded uniform pick on LightRW hardware (distributed
  // WalkerOptions::uniform_step): the full adjacency still streams, the
  // sampler spends one cycle, and there is no prev lookup or refetch.
  kUniformPick,
  // Su et al. uniform accelerator (UniformCycleEngine): one row lookup
  // and a single edge-record read per step, no burst engine or sampler.
  kUniformRecord,
};

// True for the policies that pick a uniform neighbor: they read no
// weights and no previous-vertex adjacency.
inline bool IsUniform(FetchPolicy policy) {
  return policy == FetchPolicy::kUniformPick ||
         policy == FetchPolicy::kUniformRecord;
}

// The policy of a weighted step under `config`.
inline FetchPolicy WeightedPolicy(const AcceleratorConfig& config) {
  return config.enable_wrs_pipeline ? FetchPolicy::kPipelined
                                    : FetchPolicy::kStaged;
}

// Trace track (tid) layout within one instance's pid: one lane per
// pipeline stage, mirroring the module chain of paper Fig. 3.
enum InstanceTrack : uint32_t {
  kInfoTrack = 0,    // Neighbor Info Loader (row-index lookups)
  kFetchTrack = 1,   // Dynamic Burst Engine (adjacency streams)
  kWrsTrack = 2,     // Weight Updater + WRS Sampler lanes
  kRetireTrack = 3,  // query retirement
  kDramTrack = 4,    // DRAM channel data-bus service windows
};

class BoardStepModel {
 public:
  // Phase-two timing of one step.
  struct FetchTiming {
    hwsim::Cycle last_data = 0;  // last adjacency beat arrives
    hwsim::Cycle done = 0;       // step complete, pipeline traversal included
  };

  // `graph` and `config` must outlive the model, which must not move
  // once used (the burst engine points at the channel).
  // `needs_prev_neighbors` is the walk app's: weighted steps then also
  // look up the previous vertex's row and refetch its adjacency when it
  // overflows the on-chip buffer.
  BoardStepModel(const graph::CsrGraph* graph, const AcceleratorConfig& config,
                 bool needs_prev_neighbors);

  // Issues the step's row lookup(s) at `t`; returns when the {address,
  // degree} data is available and adds the wait to stage->info_cycles.
  hwsim::Cycle Info(hwsim::Cycle t, const apps::WalkState& state,
                    FetchPolicy policy, StageCycleStats* stage);

  // Fetches and samples from `t` (the Info result) for a vertex with
  // nonzero degree; adds the fetch, sampler and pipeline cycles to *stage.
  FetchTiming Fetch(hwsim::Cycle t, const apps::WalkState& state,
                    FetchPolicy policy, StageCycleStats* stage);

  // Emits per-stage events (cache probes, row lookups, adjacency
  // streams, sampler occupancy) on the InstanceTrack layout of `pid`.
  void AttachTrace(obs::TraceRecorder* trace, uint32_t pid);

  // The channel is exposed for fault/trace attachment and for
  // TakeAccessFailure() after each phase.
  hwsim::DramChannel& channel() { return channel_; }
  const hwsim::DramChannel& channel() const { return channel_; }
  bool has_cache() const { return cache_ != nullptr; }
  CacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : CacheStats{};
  }
  const BurstStats& burst_stats() const { return burst_.stats(); }
  // Edge records the fetch policies examined (whole adjacencies, or one
  // record per single-record step) and Node2Vec prev-list refetches.
  uint64_t edges_examined() const { return edges_examined_; }
  uint64_t prev_refetches() const { return prev_refetches_; }

 private:
  bool WantsPrev(const apps::WalkState& state, FetchPolicy policy) const;
  hwsim::Cycle LookupRow(hwsim::Cycle t, graph::VertexId v);
  // Staged-flow completion of an adjacency whose last beat lands at
  // `last_data` (the stages' DRAM round-trips are booked from `t_fetch`).
  hwsim::Cycle StagedEnd(hwsim::Cycle t_fetch, hwsim::Cycle last_data,
                         uint32_t degree);
  bool tracing() const;

  const graph::CsrGraph* graph_;
  const AcceleratorConfig& config_;
  const bool needs_prev_neighbors_;
  hwsim::DramChannel channel_;
  DynamicBurstEngine burst_;
  std::unique_ptr<VertexCache> cache_;
  // The weight-updater/WRS pipeline is one k-wide unit: concurrent steps
  // serialize through it.
  hwsim::Cycle sampler_busy_ = 0;
  uint64_t edges_examined_ = 0;
  uint64_t prev_refetches_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  uint32_t pid_ = 0;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_STEP_MODEL_H_
