// ThunderRW-style CPU graph dynamic random walk engine.
//
// Implements Algorithm 2.1 of the paper: for every step of every query,
// (1) weight_calculation streams the current vertex's neighbors through the
// application weight function into a weight buffer, (2) weighted_sampling
// runs an initialization stage that builds a table (inverse transform or
// alias) and a generation stage that draws the next vertex. The sampler is
// pluggable so the engine also serves as the "ThunderRW w/WRS" and
// "ThunderRW w/PWRS" comparison points of §3.2 and Fig. 14.
//
// Queries are processed step-centrically: each worker interleaves a ring of
// active queries, issuing software prefetches for the next query's
// adjacency while processing the current one, which is ThunderRW's core
// memory-latency-hiding idea.

#ifndef LIGHTRW_BASELINE_ENGINE_H_
#define LIGHTRW_BASELINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/walk_app.h"
#include "common/histogram.h"
#include "graph/csr.h"
#include "sampling/sampler.h"

namespace lightrw::obs {
class MetricsRegistry;
}  // namespace lightrw::obs

namespace lightrw::baseline {

using apps::WalkApp;
using apps::WalkQuery;
using graph::CsrGraph;
using graph::VertexId;

struct BaselineConfig {
  sampling::SamplerKind sampler = sampling::SamplerKind::kInverseTransform;
  // Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 1;
  uint64_t seed = 42;
  // Enables the LLC model and intermediate-traffic counters (Table 1).
  // Adds overhead; leave off for timing runs.
  bool collect_profile = false;
  // Modeled LLC capacity when profiling (Xeon Gold 6246R: 35.75 MB; we use
  // the nearest power of two).
  uint64_t llc_bytes = 32ull << 20;
  // Records per-query latency samples (Fig. 15). Adds a timer per query.
  bool collect_latency = false;

  // Optional metrics registry (src/obs/); not owned, may be null. Each
  // worker publishes step counts and wall-time under worker= labels —
  // the registry is thread-safe, so concurrent workers may share it.
  obs::MetricsRegistry* metrics = nullptr;
};

// Container for generated walks: paths are concatenated, query i's path is
// vertices [offsets[i], offsets[i+1]).
struct WalkOutput {
  std::vector<uint32_t> offsets = {0};
  std::vector<VertexId> vertices;

  std::span<const VertexId> Path(size_t i) const {
    return {vertices.data() + offsets[i],
            vertices.data() + offsets[i + 1]};
  }
  size_t num_paths() const { return offsets.size() - 1; }
};

// Profiling proxies standing in for the paper's vTune metrics (Table 1).
struct ProfileCounters {
  uint64_t neighbor_bytes = 0;           // adjacency data streamed
  uint64_t intermediate_bytes_written = 0;  // weight buffer + sampler table
  uint64_t intermediate_bytes_read = 0;
  uint64_t row_lookups = 0;
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;

  double LlcMissRatio() const {
    const uint64_t total = llc_hits + llc_misses;
    return total == 0 ? 0.0 : static_cast<double>(llc_misses) / total;
  }
  // Modeled fraction of cycles stalled on memory; see engine.cc for the
  // cycle cost model.
  double memory_bound = 0.0;
  double retiring_ratio = 0.0;
};

struct BaselineRunStats {
  double seconds = 0.0;
  uint64_t queries = 0;
  uint64_t steps = 0;            // completed walk steps
  uint64_t edges_examined = 0;   // neighbor weights computed
  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
  ProfileCounters profile;
  SampleStats query_latency_seconds;  // populated if collect_latency
};

// CPU GDRW engine. Thread-compatible: one engine may run multiple times;
// each Run call is internally parallelized per the config.
class BaselineEngine {
 public:
  // `graph` and `app` must outlive the engine.
  BaselineEngine(const CsrGraph* graph, const WalkApp* app,
                 const BaselineConfig& config);

  const BaselineConfig& config() const { return config_; }

  // Executes all queries. If `output` is non-null the generated paths are
  // appended to it (single-threaded runs preserve query order).
  BaselineRunStats Run(std::span<const WalkQuery> queries,
                       WalkOutput* output = nullptr);

 private:
  const CsrGraph* graph_;
  const WalkApp* app_;
  BaselineConfig config_;
};

}  // namespace lightrw::baseline

#endif  // LIGHTRW_BASELINE_ENGINE_H_
