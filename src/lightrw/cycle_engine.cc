#include "lightrw/cycle_engine.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "lightrw/sink_shards.h"
#include "lightrw/step_sampler.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::core {

namespace {

using apps::WalkState;
using graph::VertexId;
using hwsim::Cycle;

void NameInstanceTracks(obs::TraceRecorder* trace, uint32_t pid,
                        const std::string& process_name) {
  trace->NameProcess(pid, process_name);
  trace->NameTrack(pid, kInfoTrack, "info loader");
  trace->NameTrack(pid, kFetchTrack, "burst engine");
  trace->NameTrack(pid, kWrsTrack, "wrs sampler");
  trace->NameTrack(pid, kRetireTrack, "retire");
  trace->NameTrack(pid, kDramTrack, "dram channel");
}

// One LightRW instance bound to one DRAM channel (paper Fig. 9).
class Instance {
 public:
  // `config` carries this instance's sink shards (see SinkShards).
  Instance(const graph::CsrGraph* graph, const apps::WalkApp* app,
           const AcceleratorConfig& config, FetchPolicy policy,
           uint32_t instance_id)
      : graph_(graph),
        app_(app),
        config_(config),
        policy_(policy),
        instance_id_(instance_id),
        trace_(config.trace),
        ts_(config.timeseries),
        model_(graph, config, app->needs_prev_neighbors()),
        rng_(config.sampler_parallelism, Seed()),
        sampler_(config.sampler_parallelism, &rng_),
        // Uniform picks keep the Su et al. engine's own per-instance
        // stream; weighted walks draw only their stop coins from it.
        aux_(IsUniform(policy) ? config.seed + 0x7001ULL * (instance_id + 1)
                               : Seed() ^ 0x5709ULL) {
    if (config.faults.enabled) {
      faults_ = reliability::FaultStream(config.faults, instance_id_);
      model_.channel().AttachFaults(&faults_, &rel_);
    }
    if (trace_ != nullptr) {
      NameInstanceTracks(trace_, instance_id_,
                         "accel instance " + std::to_string(instance_id_));
      model_.channel().AttachTrace(trace_, instance_id_, kDramTrack);
      model_.AttachTrace(trace_, instance_id_);
    }
  }

  // Simulates this instance's query share; accumulates into `stats` (all
  // fields except the makespan fields, which the caller derives).
  // `global_indices[i]` is the position of queries[i] in the caller's
  // query list; finished paths are stored there in `finished` (if
  // non-null) so the merged output is input-ordered.
  Cycle Run(std::span<const WalkQuery> queries,
            std::span<const size_t> global_indices,
            std::vector<std::vector<VertexId>>* finished,
            AccelRunStats* stats);

 private:
  // Each walk step flows through two scheduled phases so that the two
  // DRAM request groups of a step (row_index lookups, then the adjacency
  // fetch once the address is known) are issued at their proper simulated
  // times and interleave fairly with other in-flight walks.
  enum class Phase {
    kInfo,   // row_index lookup(s) through the cache
    kFetch,  // adjacency burst fetch + weight update + sampling
  };

  struct Slot {
    WalkState state;
    size_t query_seq = 0;  // index into this instance's query share
    uint32_t remaining = 0;
    Cycle start = 0;  // for latency accounting
    Phase phase = Phase::kInfo;
    std::vector<VertexId> path;
    bool active = false;
  };

  uint64_t Seed() const { return config_.seed + 0x1000003ULL * instance_id_; }
  // Functional sampling (identical distribution to the hardware).
  VertexId SampleNext(const WalkState& state) {
    if (IsUniform(policy_)) {
      const uint32_t degree = graph_->Degree(state.curr);
      return graph_->Neighbors(state.curr)[aux_.NextBounded(degree)];
    }
    return sampler_.SampleNext(*graph_, *app_, state);
  }

  bool tracing() const { return trace_ != nullptr && trace_->accepting(); }

  // Publishes this instance's module statistics into the configured
  // metrics registry under instance-labeled names.
  void PublishMetrics(Cycle makespan, uint64_t queries, uint64_t steps);

  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  const AcceleratorConfig& config_;
  const FetchPolicy policy_;
  const uint32_t instance_id_;
  obs::TraceRecorder* trace_;
  // Simulated-time telemetry shard for this instance (may be null). The
  // event loop drives its window clock; series handles below.
  obs::TimeSeriesRecorder* ts_;
  obs::Counter* ts_steps_ = nullptr;
  obs::Counter* ts_retired_ = nullptr;
  obs::WindowedHistogram* ts_latency_ = nullptr;
  StageCycleStats stage_;
  BoardStepModel model_;
  rng::ThunderingRng rng_;
  StepSampler sampler_;
  rng::Xoshiro256StarStar aux_;
  // Deterministic DRAM ECC fault schedule (disabled unless
  // config.faults.enabled) and the counters its events land in.
  reliability::FaultStream faults_;
  reliability::ReliabilityStats rel_;
};

Cycle Instance::Run(std::span<const WalkQuery> queries,
                    std::span<const size_t> global_indices,
                    std::vector<std::vector<VertexId>>* finished,
                    AccelRunStats* stats) {
  if (queries.empty()) {
    return 0;
  }
  if (ts_ != nullptr) {
    // Registered after the empty-share return: an instance with no
    // queries adds no series. Exemplar trace id = global query index.
    const obs::Labels instance = {{"instance", std::to_string(instance_id_)}};
    ts_steps_ = ts_->GetCounter("accel.steps", instance);
    ts_retired_ = ts_->GetCounter("accel.retired", instance);
    ts_latency_ = ts_->GetHistogram("accel.walk_latency_cycles");
  }
  const uint64_t queries_before = stats->queries;
  const uint64_t steps_before = stats->steps;
  const size_t num_slots =
      std::min<size_t>(std::max<uint32_t>(config_.inflight_queries, 1),
                       queries.size());
  std::vector<Slot> slots(num_slots);
  size_t next_query = 0;
  Cycle makespan = 0;

  // Min-heap of (ready cycle, slot index): FCFS channel arbitration.
  using HeapItem = std::pair<Cycle, size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  auto load = [&](size_t slot_index, Cycle at) {
    if (next_query >= queries.size()) {
      return;
    }
    Slot& slot = slots[slot_index];
    const WalkQuery& q = queries[next_query];
    slot.query_seq = next_query++;
    slot.state = WalkState{};
    slot.state.curr = q.start;
    slot.remaining = q.length;
    slot.start = at;
    slot.phase = Phase::kInfo;
    slot.path.clear();
    slot.path.push_back(q.start);
    slot.active = true;
    heap.emplace(at, slot_index);
  };

  auto retire = [&](size_t slot_index, Cycle at) {
    Slot& slot = slots[slot_index];
    if (config_.collect_latency) {
      stats->query_latency_cycles.Add(static_cast<double>(at - slot.start));
    }
    if (ts_retired_ != nullptr) {
      ts_retired_->Increment();
      ts_latency_->Observe(static_cast<double>(at - slot.start),
                           global_indices[slot.query_seq], 0);
    }
    if (tracing()) {
      trace_->Instant("query_retire", "query", instance_id_, kRetireTrack,
                      at);
    }
    if (finished != nullptr) {
      (*finished)[global_indices[slot.query_seq]] = std::move(slot.path);
    }
    ++stats->queries;
    slot.active = false;
    makespan = std::max(makespan, at);
    load(slot_index, at);
  };

  for (size_t i = 0; i < num_slots; ++i) {
    load(i, 0);
  }

  while (!heap.empty()) {
    const auto [now, slot_index] = heap.top();
    heap.pop();
    if (ts_ != nullptr) {
      ts_->AdvanceTo(now);
    }
    Slot& slot = slots[slot_index];
    LIGHTRW_DCHECK(slot.active);

    if (slot.phase == Phase::kInfo) {
      if (slot.state.step >= slot.remaining) {  // zero-length query
        retire(slot_index, now);
        continue;
      }
      const Cycle t_info = model_.Info(now, slot.state, policy_, &stage_);
      if (model_.channel().TakeAccessFailure()) {
        // Uncorrectable ECC error past the retry budget on the row
        // lookup: the walk cannot continue from corrupt state.
        ++rel_.walks_failed;
        retire(slot_index, t_info);
        continue;
      }
      if (graph_->Degree(slot.state.curr) == 0) {  // dead end
        retire(slot_index, t_info + kPipelineDepthCycles);
        continue;
      }
      slot.phase = Phase::kFetch;
      if (!IsUniform(policy_)) {
        // The adjacency lines arrive while other walkers' events run.
        StepSampler::Prefetch(*graph_, *app_, slot.state.curr);
      }
      heap.emplace(t_info, slot_index);
      continue;
    }

    // Phase::kFetch.
    const Cycle done = model_.Fetch(now, slot.state, policy_, &stage_).done;
    const VertexId next = SampleNext(slot.state);
    slot.phase = Phase::kInfo;
    if (model_.channel().TakeAccessFailure()) {
      // Uncorrectable ECC error in the adjacency stream: the sampled
      // step is based on corrupt data, so the walk fails here.
      ++rel_.walks_failed;
      retire(slot_index, done);
      continue;
    }
    if (next == graph::kInvalidVertex) {  // all weights zero
      retire(slot_index, done);
      continue;
    }
    graph_->PrefetchRow(next);  // the next step's row lookup reads it
    slot.state.prev = slot.state.curr;
    slot.state.curr = next;
    ++slot.state.step;
    ++stats->steps;
    if (ts_steps_ != nullptr) {
      ts_steps_->Increment();
    }
    slot.path.push_back(next);
    const double stop_probability = app_->stop_probability();
    const bool stopped =
        stop_probability > 0.0 && aux_.NextUnit() < stop_probability;
    if (stopped || slot.state.step >= slot.remaining) {
      retire(slot_index, done);
    } else {
      heap.emplace(done, slot_index);
    }
  }

  // Fold in this instance's module statistics.
  stats->edges_examined += model_.edges_examined();
  stats->prev_refetches += model_.prev_refetches();
  stats->dram += model_.channel().stats();
  stats->cache += model_.cache_stats();
  stats->burst += model_.burst_stats();
  stats->stage += stage_;
  stats->reliability.Accumulate(rel_);
  if (ts_ != nullptr) {
    ts_->Finish(makespan);
  }
  PublishMetrics(makespan, stats->queries - queries_before,
                 stats->steps - steps_before);
  return makespan;
}

void Instance::PublishMetrics(Cycle makespan, uint64_t queries,
                              uint64_t steps) {
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) {
    return;
  }
  const obs::Labels instance = {{"instance", std::to_string(instance_id_)}};
  metrics->GetCounter("accel.instance.queries", instance)->Increment(queries);
  metrics->GetCounter("accel.instance.steps", instance)->Increment(steps);
  metrics->GetGauge("accel.instance.cycles", instance)
      ->Set(static_cast<double>(makespan));
  if (model_.has_cache()) {
    metrics->GetCounter("accel.cache.hits", instance)
        ->Increment(model_.cache_stats().hits);
    metrics->GetCounter("accel.cache.misses", instance)
        ->Increment(model_.cache_stats().misses);
  }
  const BurstStats& burst = model_.burst_stats();
  metrics->GetCounter("accel.burst.requests", instance)
      ->Increment(burst.requests);
  metrics->GetCounter("accel.burst.long_bursts", instance)
      ->Increment(burst.long_bursts);
  metrics->GetCounter("accel.burst.short_bursts", instance)
      ->Increment(burst.short_bursts);
  metrics->GetCounter("accel.burst.loaded_bytes", instance)
      ->Increment(burst.loaded_bytes);
  const hwsim::DramStats& dram = model_.channel().stats();
  metrics->GetCounter("accel.dram.requests", instance)
      ->Increment(dram.requests);
  metrics->GetCounter("accel.dram.bytes", instance)->Increment(dram.bytes);
  metrics->GetCounter("accel.dram.busy_cycles", instance)
      ->Increment(dram.busy_cycles);
  const struct {
    const char* stage;
    uint64_t cycles;
  } stages[] = {{"info", stage_.info_cycles},
                {"fetch", stage_.fetch_cycles},
                {"sampler", stage_.sampler_cycles},
                {"pipeline", stage_.pipeline_cycles}};
  for (const auto& [stage, cycles] : stages) {
    metrics
        ->GetCounter("accel.stage.cycles",
                     {{"instance", std::to_string(instance_id_)},
                      {"stage", stage}})
        ->Increment(cycles);
  }
  if (rel_.Any()) {
    reliability::PublishReliabilityMetrics(metrics, rel_, instance);
  }
}

// Folds one instance's counters into the run total. Called in instance
// order after the parallel barrier so the merged result (including the
// floating-point latency samples) is independent of thread count.
void AccumulateStats(const AccelRunStats& part, AccelRunStats* total) {
  total->queries += part.queries;
  total->steps += part.steps;
  total->edges_examined += part.edges_examined;
  total->dram += part.dram;
  total->cache += part.cache;
  total->burst += part.burst;
  total->stage += part.stage;
  total->prev_refetches += part.prev_refetches;
  total->reliability.Accumulate(part.reliability);
  total->query_latency_cycles.Merge(part.query_latency_cycles);
}

}  // namespace

AccelRunStats RunAcceleratorInstances(const graph::CsrGraph& graph,
                                      const apps::WalkApp& app,
                                      const AcceleratorConfig& config,
                                      FetchPolicy policy,
                                      std::span<const WalkQuery> queries,
                                      WalkOutput* output) {
  AccelRunStats stats;
  const uint32_t n = config.num_instances;

  // Round-robin query distribution across instances (paper §6.1.5:
  // "we evenly distribute random walk queries to all instances").
  std::vector<std::vector<WalkQuery>> shares(n);
  std::vector<std::vector<size_t>> share_indices(n);
  for (size_t i = 0; i < queries.size(); ++i) {
    shares[i % n].push_back(queries[i]);
    share_indices[i % n].push_back(i);
  }

  std::vector<std::vector<VertexId>> finished;
  if (output != nullptr) {
    finished.resize(queries.size());
  }

  // Each instance is an independent shard: private datapath models,
  // private RNG streams, a private stats slot and private sink shards.
  // Workers write only their own slots, so the run is bit-identical for
  // every thread count; the metrics registry is shared but its counters
  // commute and its exposition is key-sorted.
  const uint32_t threads = SimThreadPool::ResolveThreads(config.num_threads);
  std::vector<AccelRunStats> instance_stats(n);
  std::vector<Cycle> instance_makespan(n, 0);
  SinkShards sinks(config, n);
  SimThreadPool::ParallelFor(threads, n, [&](size_t i) {
    const AcceleratorConfig shard = sinks.Shard(i);
    Instance instance(&graph, &app, shard, policy, static_cast<uint32_t>(i));
    instance_makespan[i] =
        instance.Run(shares[i], share_indices[i],
                     output != nullptr ? &finished : nullptr,
                     &instance_stats[i]);
  });
  sinks.Merge();

  Cycle makespan = 0;
  for (uint32_t i = 0; i < n; ++i) {
    AccumulateStats(instance_stats[i], &stats);
    makespan = std::max(makespan, instance_makespan[i]);
  }
  if (output != nullptr) {
    for (auto& path : finished) {
      output->vertices.insert(output->vertices.end(), path.begin(),
                              path.end());
      output->offsets.push_back(
          static_cast<uint32_t>(output->vertices.size()));
    }
  }
  stats.cycles = makespan;
  stats.seconds = static_cast<double>(makespan) / config.dram.clock_hz;
  return stats;
}

CycleEngine::CycleEngine(const graph::CsrGraph* graph,
                         const apps::WalkApp* app,
                         const AcceleratorConfig& config)
    : graph_(graph), app_(app), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(config.sampler_parallelism >= 1);
  LIGHTRW_CHECK(config.num_instances >= 1);
}

AccelRunStats CycleEngine::Run(std::span<const WalkQuery> queries,
                               WalkOutput* output) {
  return RunAcceleratorInstances(*graph_, *app_, config_,
                                 WeightedPolicy(config_), queries, output);
}

}  // namespace lightrw::core
