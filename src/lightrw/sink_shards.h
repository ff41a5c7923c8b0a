// Per-shard observability sinks for the sharded engines.
//
// CycleEngine instances, DistributedEngine's replicated boards and
// WalkService's admission shards each run as an independent shard on
// SimThreadPool. A shard must not contend on the shared trace, span and
// time-series recorders, so each records into private recorders built
// from the shared recorders' configs, and Merge() folds them back in
// shard order after the barrier. That reproduces the exact export a
// serial run writes, at every thread count. With one shard the shared
// recorders are used directly. The metrics registry is never sharded:
// its counters commute and its exposition is key-sorted.

#ifndef LIGHTRW_LIGHTRW_SINK_SHARDS_H_
#define LIGHTRW_LIGHTRW_SINK_SHARDS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "lightrw/config.h"

namespace lightrw::core {

class SinkShards {
 public:
  // `shared`'s sinks (any may be null) must outlive this object.
  SinkShards(const AcceleratorConfig& shared, size_t num_shards);
  ~SinkShards();
  SinkShards(const SinkShards&) = delete;
  SinkShards& operator=(const SinkShards&) = delete;

  // `shared` with trace, spans and timeseries pointing at shard `i`'s
  // recorders. Safe to call from the shard's worker thread.
  AcceleratorConfig Shard(size_t i) const;

  // Folds every shard's recorders into the shared ones in shard order.
  // Call once, after every shard has finished.
  void Merge();

 private:
  struct Recorders;

  AcceleratorConfig shared_;
  std::vector<Recorders> shards_;  // empty with one shard
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_SINK_SHARDS_H_
