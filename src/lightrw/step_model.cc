#include "lightrw/step_model.h"

#include <algorithm>

#include "common/bits.h"
#include "obs/trace.h"

namespace lightrw::core {

using graph::VertexId;
using hwsim::Cycle;

BoardStepModel::BoardStepModel(const graph::CsrGraph* graph,
                               const AcceleratorConfig& config,
                               bool needs_prev_neighbors)
    : graph_(graph),
      config_(config),
      needs_prev_neighbors_(needs_prev_neighbors),
      channel_(config.dram),
      burst_(&channel_, config.burst),
      cache_(MakeVertexCache(config.cache_kind, config.cache_entries)) {}

void BoardStepModel::AttachTrace(obs::TraceRecorder* trace, uint32_t pid) {
  trace_ = trace;
  pid_ = pid;
}

bool BoardStepModel::tracing() const {
  return trace_ != nullptr && trace_->accepting();
}

// Only weighted steps read N(prev) (Node2Vec's membership structure).
bool BoardStepModel::WantsPrev(const apps::WalkState& state,
                               FetchPolicy policy) const {
  return needs_prev_neighbors_ && !IsUniform(policy) &&
         state.prev != graph::kInvalidVertex;
}

// Row-index lookup through the configured cache.
Cycle BoardStepModel::LookupRow(Cycle t, VertexId v) {
  if (cache_ != nullptr) {
    if (cache_->Probe(v)) {
      if (tracing()) {
        trace_->Instant("cache_hit", "cache", pid_, kInfoTrack, t);
      }
      return t + 1;  // on-chip hit: single-cycle response (Fig. 5 step c)
    }
    if (tracing()) {
      trace_->Instant("cache_miss", "cache", pid_, kInfoTrack, t);
    }
  }
  const Cycle done = channel_.Access(t, /*burst_beats=*/1);
  channel_.ReportUseful(graph::kBytesPerRowRecord);
  if (cache_ != nullptr) {
    cache_->Install(v, graph_->Degree(v));
  }
  return done;
}

Cycle BoardStepModel::Info(Cycle t, const apps::WalkState& state,
                           FetchPolicy policy, StageCycleStats* stage) {
  // Node2Vec-style apps also look up the previous vertex's row entry
  // for the membership structure (the paper's "Node2Vec has more memory
  // accesses on the row_index array"); the two loaders issue
  // concurrently.
  Cycle t_info = LookupRow(t, state.curr);
  if (WantsPrev(state, policy)) {
    t_info = std::max(t_info, LookupRow(t, state.prev));
  }
  stage->info_cycles += t_info - t;
  if (tracing()) {
    trace_->Complete("row_lookup", "info", pid_, kInfoTrack, t, t_info);
  }
  return t_info;
}

// Staged ThunderRW-style flow on chip (the WRS-disabled ablation): each
// stage runs to completion and the intermediate weight buffer and
// sampling table round-trip through DRAM (Inefficiency 1).
//
// The stage chain is serial *within* the step, but other in-flight walks
// still overlap with it, so the extra channel occupancy is booked at the
// step's start (for contention) while the stages' serial latency
// accumulates analytically.
Cycle BoardStepModel::StagedEnd(Cycle t_fetch, Cycle last_data,
                                uint32_t degree) {
  const uint32_t bus = config_.dram.bus_bytes;
  const uint64_t weight_bytes = static_cast<uint64_t>(degree) * 4;
  const uint64_t table_bytes = static_cast<uint64_t>(degree) * 8;
  const uint32_t weight_beats =
      static_cast<uint32_t>(CeilDiv(weight_bytes, bus));
  const uint32_t table_beats =
      static_cast<uint32_t>(CeilDiv(table_bytes, bus));
  const uint32_t probes = CeilLog2(static_cast<uint64_t>(degree) + 1);

  Cycle booked = t_fetch;
  booked = std::max(booked, channel_.Access(t_fetch, weight_beats));
  booked = std::max(booked, channel_.Access(t_fetch, weight_beats));
  booked = std::max(booked, channel_.Access(t_fetch, table_beats));
  for (uint32_t i = 0; i < probes; ++i) {
    booked = std::max(booked, channel_.Access(t_fetch, 1));
  }

  const auto transfer_latency = [&](uint32_t beats) {
    return channel_.RequestOccupancy(beats) +
           config_.dram.access_latency_cycles;
  };
  // weight compute + buffer write/read + table build + table write +
  // binary-search probes, end to end.
  const Cycle serial = last_data + degree + transfer_latency(weight_beats) +
                       transfer_latency(weight_beats) + degree +
                       transfer_latency(table_beats) +
                       static_cast<Cycle>(probes) * transfer_latency(1);
  return std::max(serial, booked);
}

BoardStepModel::FetchTiming BoardStepModel::Fetch(
    Cycle t, const apps::WalkState& state, FetchPolicy policy,
    StageCycleStats* stage) {
  const uint32_t degree = graph_->Degree(state.curr);
  const Cycle depth = config_.pipeline_depth_cycles;
  stage->pipeline_cycles += depth;

  if (policy == FetchPolicy::kUniformRecord) {
    // Uniform draw: one random index, one edge-record read.
    const Cycle done = channel_.Access(t, /*burst_beats=*/1);
    channel_.ReportUseful(graph::kBytesPerEdgeRecord);
    ++edges_examined_;  // only the sampled record is touched
    stage->fetch_cycles += done - t;
    if (tracing()) {
      trace_->Complete("adjacency_fetch", "burst", pid_, kFetchTrack, t,
                       done);
    }
    return {done, done + depth};
  }

  // Re-fetch N(prev) when it exceeded the on-chip membership buffer.
  Cycle t_fetch = t;
  if (WantsPrev(state, policy)) {
    const uint32_t prev_degree = graph_->Degree(state.prev);
    if (prev_degree > config_.prev_neighbor_buffer_edges) {
      t_fetch = burst_.Fetch(t_fetch, static_cast<uint64_t>(prev_degree) *
                                          graph::kBytesPerEdgeRecord);
      ++prev_refetches_;
    }
  }

  // Dynamic burst engine streams the adjacency list.
  const Cycle last_data = burst_.Fetch(
      t_fetch, static_cast<uint64_t>(degree) * graph::kBytesPerEdgeRecord);
  edges_examined_ += degree;

  // Weight Updater + WRS Sampler.
  Cycle step_end;
  if (policy == FetchPolicy::kStaged) {
    step_end = StagedEnd(t_fetch, last_data, degree);
  } else {
    // Fine-grained pipeline: the sampler consumes k edges per cycle as
    // data streams in (a degraded uniform pick takes one cycle). It is
    // one shared k-wide unit, so concurrent steps queue for it; the step
    // completes when the slower of memory and sampler is done.
    const Cycle first_data = t_fetch + config_.dram.access_latency_cycles;
    const Cycle consume_start = std::max(first_data, sampler_busy_);
    sampler_busy_ = consume_start +
                    (policy == FetchPolicy::kUniformPick
                         ? 1
                         : CeilDiv(degree, config_.sampler_parallelism));
    step_end = std::max(last_data, sampler_busy_);
    if (tracing()) {
      trace_->Complete("wrs_consume", "sampler", pid_, kWrsTrack,
                       consume_start, sampler_busy_);
    }
  }

  // Attribution: memory wait up to the last adjacency beat counts as
  // fetch; whatever extends past it (WRS queueing or the staged
  // weight/table round-trips) counts as sampler time.
  stage->fetch_cycles += last_data > t ? last_data - t : 0;
  stage->sampler_cycles += step_end > last_data ? step_end - last_data : 0;
  if (tracing()) {
    trace_->Complete("adjacency_fetch", "burst", pid_, kFetchTrack, t_fetch,
                     last_data);
  }
  return {last_data, step_end + depth};
}

}  // namespace lightrw::core
