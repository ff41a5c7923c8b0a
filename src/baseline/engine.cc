#include "baseline/engine.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "baseline/llc_model.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "rng/rng.h"
#include "sampling/alias.h"
#include "sampling/inverse_transform.h"
#include "sampling/parallel_wrs.h"
#include "sampling/reservoir.h"

namespace lightrw::baseline {

namespace {

using apps::WalkState;
using graph::Weight;
using sampling::kNoSample;

// Cycle cost model for the Table 1 proxies. The absolute constants are
// calibrated to a ~3 GHz out-of-order core; only the resulting ratios are
// reported.
constexpr double kLlcMissCycles = 240.0;  // DRAM round trip
constexpr double kLlcHitCycles = 40.0;    // LLC hit latency
constexpr double kWeightCycles = 4.0;     // weight function, simple apps
constexpr double kPrevLookupCycles = 12.0;  // Node2Vec edge-existence probe
constexpr double kPerStepOverheadCycles = 30.0;  // loop/bookkeeping/sampling
constexpr double kPerEdgeOverheadCycles = 2.0;

// Queries interleaved per worker (ThunderRW's step-centric ring).
constexpr size_t kRingSize = 16;
// Lanes for the kParallelWrs sampler.
constexpr size_t kPwrsLanes = 8;

// One worker processes a contiguous chunk of queries with a step-centric
// interleaving ring.
class Worker {
 public:
  Worker(const CsrGraph* graph, const WalkApp* app,
         const BaselineConfig& config, size_t worker_index,
         uint64_t worker_seed)
      : graph_(graph),
        app_(app),
        config_(config),
        worker_index_(worker_index),
        gen_(worker_seed),
        wrs_rng_(kPwrsLanes, worker_seed ^ 0xd1ceULL),
        reservoir_(&wrs_rng_, 0),
        pwrs_(kPwrsLanes, &wrs_rng_) {
    if (config_.collect_profile) {
      llc_ = std::make_unique<LlcModel>(config_.llc_bytes);
    }
  }

  void Run(std::span<const WalkQuery> queries, WalkOutput* output,
           BaselineRunStats* stats);

  // Converts raw counters into the Table 1 proxies using the cycle cost
  // model above.
  void FinalizeProfile(BaselineRunStats* stats) const;

 private:
  // State of one in-flight query in the interleaving ring.
  struct Slot {
    WalkState state;
    uint32_t remaining = 0;      // steps still to take
    size_t query_index = 0;
    std::vector<VertexId> path;  // includes the start vertex
    WallTimer timer;
    bool active = false;
  };

  // Takes one step of the walk in `slot`. Returns false when the walk
  // terminated (finished, dead end, or all weights zero).
  bool Step(Slot* slot, BaselineRunStats* stats);

  // Draws the next neighbor index from the configured sampler given the
  // populated weights_ buffer. Returns kNoSample if nothing sampleable.
  size_t SampleIndex();

  void PrefetchRow(VertexId v) const {
    __builtin_prefetch(&graph_->row_index()[v]);
  }

  const CsrGraph* graph_;
  const WalkApp* app_;
  const BaselineConfig& config_;
  const size_t worker_index_;
  rng::Xoshiro256StarStar gen_;
  rng::ThunderingRng wrs_rng_;
  sampling::InverseTransformTable its_;
  sampling::AliasTable alias_;
  sampling::ReservoirSampler reservoir_;
  sampling::ParallelWrsSampler pwrs_;
  std::vector<Weight> weights_;
  std::unique_ptr<LlcModel> llc_;
};

size_t Worker::SampleIndex() {
  switch (config_.sampler) {
    case sampling::SamplerKind::kInverseTransform:
      its_.Build(weights_);
      return its_.Sample(gen_.Next());
    case sampling::SamplerKind::kAlias:
      alias_.Build(weights_);
      return alias_.Sample(gen_.Next(), gen_.Next32());
    case sampling::SamplerKind::kReservoir: {
      reservoir_.Reset();
      for (size_t i = 0; i < weights_.size(); ++i) {
        reservoir_.Offer(i, weights_[i]);
      }
      return reservoir_.selected();
    }
    case sampling::SamplerKind::kParallelWrs:
      return pwrs_.SampleAll(weights_);
  }
  return kNoSample;
}

bool Worker::Step(Slot* slot, BaselineRunStats* stats) {
  WalkState& state = slot->state;
  const uint32_t degree = graph_->Degree(state.curr);
  if (degree == 0) {
    return false;
  }
  const auto neighbors = graph_->Neighbors(state.curr);
  const auto static_weights = graph_->NeighborWeights(state.curr);
  const auto relations = graph_->NeighborRelations(state.curr);

  // weight_calculation: stream neighbors through the app weight function.
  weights_.resize(degree);
  for (uint32_t i = 0; i < degree; ++i) {
    weights_[i] = app_->DynamicWeight(*graph_, state, neighbors[i],
                                      static_weights[i], relations[i]);
  }
  stats->edges_examined += degree;

  if (config_.collect_profile) {
    ProfileCounters& prof = stats->profile;
    ++prof.row_lookups;
    const uint64_t row_addr =
        state.curr * graph::kBytesPerRowRecord;
    const uint64_t adj_addr =
        (64ull << 30) +  // disjoint address region for col_index
        graph_->OutOffset(state.curr) * graph::kBytesPerEdgeRecord;
    llc_->Probe(row_addr);
    llc_->ProbeRange(adj_addr, degree * graph::kBytesPerEdgeRecord);
    prof.neighbor_bytes += degree * graph::kBytesPerEdgeRecord;
    // Intermediate traffic of Algorithm 2.1: the weight buffer is written
    // then read by initialization, and the sampler table is written then
    // read by generation — the 2x|N(v)| accesses of Inefficiency 1.
    prof.intermediate_bytes_written +=
        degree * sizeof(Weight) + degree * sizeof(uint64_t);
    prof.intermediate_bytes_read +=
        degree * sizeof(Weight) + degree * sizeof(uint64_t);
  }

  // weighted_sampling: initialization + generation (or streaming WRS).
  const size_t picked = SampleIndex();
  if (picked == kNoSample) {
    return false;
  }
  state.prev = state.curr;
  state.curr = neighbors[picked];
  slot->path.push_back(state.curr);
  ++state.step;
  ++stats->steps;
  const double stop_probability = app_->stop_probability();
  if (stop_probability > 0.0 && gen_.NextUnit() < stop_probability) {
    return false;  // geometric termination (PPR-style apps)
  }
  return slot->state.step < slot->remaining;
}

void Worker::Run(std::span<const WalkQuery> queries, WalkOutput* output,
                 BaselineRunStats* stats) {
  const uint64_t queries_before = stats->queries;
  const uint64_t steps_before = stats->steps;
  const uint64_t edges_before = stats->edges_examined;
  WallTimer worker_timer;
  std::vector<Slot> ring(kRingSize);
  size_t next_query = 0;
  size_t active = 0;

  auto load = [&](Slot* slot) {
    while (next_query < queries.size()) {
      const WalkQuery& q = queries[next_query];
      slot->state = WalkState{};
      slot->state.curr = q.start;
      slot->remaining = q.length;
      slot->query_index = next_query;
      slot->path.clear();
      slot->path.push_back(q.start);
      slot->active = true;
      if (config_.collect_latency) {
        slot->timer.Restart();
      }
      ++next_query;
      ++active;
      return;
    }
    slot->active = false;
  };

  // The interleaving ring retires queries out of order; buffer per-query
  // paths and emit them in input order after the loop.
  std::vector<std::vector<VertexId>> finished_paths;
  if (output != nullptr) {
    finished_paths.resize(queries.size());
  }

  auto retire = [&](Slot* slot) {
    if (config_.collect_latency) {
      stats->query_latency_seconds.Add(slot->timer.ElapsedSeconds());
    }
    if (output != nullptr) {
      finished_paths[slot->query_index] = std::move(slot->path);
    }
    ++stats->queries;
    slot->active = false;
    --active;
  };

  for (auto& slot : ring) {
    load(&slot);
    if (!slot.active) {
      break;
    }
  }

  while (active > 0) {
    for (size_t i = 0; i < ring.size(); ++i) {
      Slot& slot = ring[i];
      if (!slot.active) {
        continue;
      }
      if (slot.state.step >= slot.remaining) {  // zero-length queries
        retire(&slot);
        load(&slot);
        continue;
      }
      // ThunderRW-style latency hiding: prefetch the row entry the next
      // ring slot will need before working on this one.
      const Slot& next_slot = ring[(i + 1) % ring.size()];
      if (next_slot.active) {
        PrefetchRow(next_slot.state.curr);
      }
      if (!Step(&slot, stats)) {
        retire(&slot);
        load(&slot);
      }
    }
  }

  if (output != nullptr) {
    for (auto& path : finished_paths) {
      output->vertices.insert(output->vertices.end(), path.begin(),
                              path.end());
      output->offsets.push_back(
          static_cast<uint32_t>(output->vertices.size()));
    }
  }

  if (config_.collect_profile) {
    stats->profile.llc_hits = llc_->hits();
    stats->profile.llc_misses = llc_->misses();
    FinalizeProfile(stats);
  }

  if (config_.metrics != nullptr) {
    const double seconds = worker_timer.ElapsedSeconds();
    const uint64_t steps = stats->steps - steps_before;
    const obs::Labels worker = {{"worker", std::to_string(worker_index_)}};
    config_.metrics->GetCounter("baseline.worker.queries", worker)
        ->Increment(stats->queries - queries_before);
    config_.metrics->GetCounter("baseline.worker.steps", worker)
        ->Increment(steps);
    config_.metrics->GetCounter("baseline.worker.edges_examined", worker)
        ->Increment(stats->edges_examined - edges_before);
    config_.metrics->GetGauge("baseline.worker.seconds", worker)
        ->Set(seconds);
    config_.metrics->GetGauge("baseline.worker.steps_per_second", worker)
        ->Set(seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0);
    if (config_.collect_latency) {
      obs::Histogram* latency = config_.metrics->GetHistogram(
          "baseline.worker.query_latency_seconds", worker);
      // stats->query_latency_seconds only holds this worker's samples
      // here (per-worker stats structs are merged later by the engine).
      for (const double s : stats->query_latency_seconds.sorted_samples()) {
        latency->Observe(s);
      }
    }
  }
}

void ComputeProfileRatios(ProfileCounters* prof, double edges, double steps,
                          bool needs_prev) {
  const double weight_cost =
      needs_prev ? kWeightCycles + kPrevLookupCycles : kWeightCycles;
  const double compute = edges * weight_cost;
  const double overhead =
      steps * kPerStepOverheadCycles + edges * kPerEdgeOverheadCycles;
  const double mem_hit = static_cast<double>(prof->llc_hits) * kLlcHitCycles;
  const double mem_miss =
      static_cast<double>(prof->llc_misses) * kLlcMissCycles;
  const double total = compute + overhead + mem_hit + mem_miss;
  if (total > 0.0) {
    prof->memory_bound = mem_miss / total;
    prof->retiring_ratio = compute / total;
  }
}

void Worker::FinalizeProfile(BaselineRunStats* stats) const {
  ComputeProfileRatios(&stats->profile,
                       static_cast<double>(stats->edges_examined),
                       static_cast<double>(stats->steps),
                       app_->needs_prev_neighbors());
}

}  // namespace

BaselineEngine::BaselineEngine(const CsrGraph* graph, const WalkApp* app,
                               const BaselineConfig& config)
    : graph_(graph), app_(app), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
}

BaselineRunStats BaselineEngine::Run(std::span<const WalkQuery> queries,
                                     WalkOutput* output) {
  size_t num_threads = config_.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads =
      std::min<size_t>(num_threads, std::max<size_t>(queries.size(), 1));

  BaselineRunStats total;
  WallTimer timer;

  if (num_threads <= 1) {
    Worker worker(graph_, app_, config_, /*worker_index=*/0, config_.seed);
    worker.Run(queries, output, &total);
  } else {
    std::vector<BaselineRunStats> stats(num_threads);
    std::vector<WalkOutput> outputs(num_threads);
    std::vector<std::thread> threads;
    const size_t chunk = (queries.size() + num_threads - 1) / num_threads;
    for (size_t t = 0; t < num_threads; ++t) {
      const size_t begin = t * chunk;
      const size_t end = std::min(queries.size(), begin + chunk);
      if (begin >= end) {
        break;
      }
      threads.emplace_back([&, t, begin, end] {
        Worker worker(graph_, app_, config_, t,
                      config_.seed + 0x9e3779b97f4a7c15ULL * (t + 1));
        worker.Run(queries.subspan(begin, end - begin),
                   output != nullptr ? &outputs[t] : nullptr, &stats[t]);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (size_t t = 0; t < num_threads; ++t) {
      total.query_latency_seconds.Merge(stats[t].query_latency_seconds);
      total.queries += stats[t].queries;
      total.steps += stats[t].steps;
      total.edges_examined += stats[t].edges_examined;
      total.profile.neighbor_bytes += stats[t].profile.neighbor_bytes;
      total.profile.intermediate_bytes_written +=
          stats[t].profile.intermediate_bytes_written;
      total.profile.intermediate_bytes_read +=
          stats[t].profile.intermediate_bytes_read;
      total.profile.row_lookups += stats[t].profile.row_lookups;
      total.profile.llc_hits += stats[t].profile.llc_hits;
      total.profile.llc_misses += stats[t].profile.llc_misses;
      if (output != nullptr) {
        for (size_t p = 0; p < outputs[t].num_paths(); ++p) {
          const auto path = outputs[t].Path(p);
          output->vertices.insert(output->vertices.end(), path.begin(),
                                  path.end());
          output->offsets.push_back(
              static_cast<uint32_t>(output->vertices.size()));
        }
      }
    }
    if (config_.collect_profile) {
      ComputeProfileRatios(&total.profile,
                           static_cast<double>(total.edges_examined),
                           static_cast<double>(total.steps),
                           app_->needs_prev_neighbors());
    }
  }
  total.seconds = timer.ElapsedSeconds();
  return total;
}

}  // namespace lightrw::baseline
