// Deterministic parallel execution of independent simulation shards.
//
// Every parallel path in this repo follows the same discipline: the work
// is decomposed into shards that are fixed by the *configuration*
// (accelerator instances, cluster boards, service admission shards,
// bench sweep points) — never by the thread count — each shard owns its
// state (RNG streams, datapath models, metrics/trace buffers, stats
// accumulators) and writes results only into its own slot, and the
// caller merges the slots in shard-index order after the barrier. Under
// that discipline the merged result is a pure function of the shard
// decomposition: running with 1 thread or N threads is bit-identical,
// and the thread count only changes wall-clock time.
//
// SimThreadPool is the small engine behind it: ParallelFor(threads, n,
// fn) claims shard indices from an atomic counter and runs fn(shard) on
// up to `threads` workers (the calling thread participates, so threads
// == 1 degenerates to a plain serial loop with no thread spawned).
//
// The process-wide default thread count is 1 unless overridden by the
// LIGHTRW_SIM_THREADS environment variable or SetDefaultThreads() (the
// --threads flag of walk_tool and the benches). Engine configs carry a
// num_threads field where 0 means "use the default"; passing the
// resolved value through ResolveThreads() clamps it to [1, kMaxThreads].

#ifndef LIGHTRW_COMMON_SIM_THREAD_POOL_H_
#define LIGHTRW_COMMON_SIM_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace lightrw {

class SimThreadPool {
 public:
  // Hard cap on worker threads; requests beyond it are clamped.
  static constexpr uint32_t kMaxThreads = 256;

  // LIGHTRW_SIM_THREADS: unset or empty is 1, otherwise decimal digits in
  // [0, kMaxThreads], 0 meaning 1. Anything else is an InvalidArgument
  // error naming the variable, on which the benches and walk_tool exit 1.
  static StatusOr<uint32_t> EnvThreads();

  // The process-wide default: SetDefaultThreads() if called, else
  // EnvThreads() (read once; 1 when it is an error).
  static uint32_t DefaultThreads();

  // Overrides the default for the rest of the process (0 restores the
  // environment/1 fallback). Not meant to be raced with running
  // ParallelFor calls; tools set it once at startup.
  static void SetDefaultThreads(uint32_t n);

  // Maps a config-level request to an executable thread count:
  // 0 -> DefaultThreads(), otherwise the request, clamped to
  // [1, kMaxThreads].
  static uint32_t ResolveThreads(uint32_t requested);

  // Runs fn(shard) for every shard in [0, num_shards) on up to `threads`
  // concurrent workers (clamped to num_shards; the calling thread is one
  // of them). Shard indices are claimed atomically, so which worker runs
  // which shard is unspecified — fn must write only shard-owned state.
  // Returns after all shards complete (a full barrier).
  static void ParallelFor(uint32_t threads, size_t num_shards,
                          const std::function<void(size_t)>& fn);
};

}  // namespace lightrw

#endif  // LIGHTRW_COMMON_SIM_THREAD_POOL_H_
