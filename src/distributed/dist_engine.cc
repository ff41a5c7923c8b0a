#include "distributed/dist_engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "distributed/config_validation.h"
#include "lightrw/sink_shards.h"
#include "lightrw/ticket_walk.h"

namespace lightrw::distributed {

namespace {

// Path vertices computed ahead of the launch cursor, counting each
// ticket's whole length: 1 MB of paths. A run that does not keep its
// corpus never holds more (plus one copy per walker in flight).
constexpr size_t kWindowVertices = size_t{1} << 18;

// The paths of a batch run's walks, computed one window of tickets ahead
// of the launch cursor. The run's j-th walk is ticket first + j * stride
// and executes queries[ticket]. Up to `threads` workers, each stepping
// its own PathRing, claim a window's tickets one at a time.
class PathWindow {
 public:
  PathWindow(const graph::CsrGraph* graph, const apps::WalkApp* app,
             const DistributedConfig& config,
             std::span<const apps::WalkQuery> queries, size_t first,
             size_t stride, uint32_t threads)
      : queries_(queries),
        first_(first),
        stride_(stride),
        seed_(config.board.seed),
        size_(queries.size() > first
                  ? (queries.size() - first + stride - 1) / stride
                  : 0) {
    for (size_t t = 0; t < std::min<size_t>(threads, size_); ++t) {
      rings_.push_back(std::make_unique<core::PathRing>(
          graph, app, config.board.sampler_parallelism));
    }
  }

  // Walks in the run.
  size_t size() const { return size_; }

  // The path of walk j. j must not decrease from one call to the next:
  // computing a window overwrites the previous one.
  const core::TicketPath& Path(size_t j) {
    LIGHTRW_DCHECK(j >= begin_);
    if (j >= begin_ + paths_.size()) {
      Fill(j);
    }
    return paths_[j - begin_];
  }

 private:
  // Computes the window of walks j, j + 1, ... whose paths fit in
  // kWindowVertices at their full lengths (at least walk j). A path
  // reserves at most one window: a query whose length cap is far above
  // what its walk reaches (a PPR walk ends on a stop coin) grows its
  // vector only as far as it walks.
  void Fill(size_t j) {
    begin_ = j;
    paths_.clear();
    size_t vertices = 0;
    for (size_t k = j; k < size_; ++k) {
      const size_t ticket = first_ + k * stride_;
      const size_t room = size_t{queries_[ticket].length} + 1;
      if (!paths_.empty() && vertices + room > kWindowVertices) {
        break;
      }
      core::TicketPath& path = paths_.emplace_back();
      path.ticket = ticket;
      path.query = queries_[ticket];
      path.vertices.reserve(std::min(room, kWindowVertices));
      vertices += room;
    }
    // Tickets are claimed one at a time rather than split into equal
    // ranges, so a worker that draws long or slow walks walks fewer.
    const uint32_t workers =
        static_cast<uint32_t>(std::min(rings_.size(), paths_.size()));
    std::atomic<size_t> cursor{0};
    SimThreadPool::ParallelFor(workers, workers, [&](size_t t) {
      rings_[t]->Walk(seed_, paths_, cursor);
    });
  }

  std::span<const apps::WalkQuery> queries_;
  size_t first_;
  size_t stride_;
  uint64_t seed_;
  size_t size_;
  std::vector<std::unique_ptr<core::PathRing>> rings_;  // one per worker
  size_t begin_ = 0;  // walk index of paths_[0]
  std::vector<core::TicketPath> paths_;
};

}  // namespace

DistributedEngine::DistributedEngine(const graph::CsrGraph* graph,
                                     const apps::WalkApp* app,
                                     const Partition* partition,
                                     const DistributedConfig& config)
    : graph_(graph), app_(app), partition_(partition), config_(config) {
  LIGHTRW_CHECK(graph != nullptr);
  LIGHTRW_CHECK(app != nullptr);
  LIGHTRW_CHECK(partition != nullptr);
  LIGHTRW_CHECK_EQ(partition->owners().size(), graph->num_vertices());
}

StatusOr<DistributedRunStats> DistributedEngine::Run(
    std::span<const apps::WalkQuery> queries,
    baseline::WalkOutput* output) {
  LIGHTRW_RETURN_IF_ERROR(ValidateDistributedConfig(config_));
  const BoardId num_boards = partition_->num_boards();
  LIGHTRW_RETURN_IF_ERROR(
      CheckFailoverSatisfiable(config_, *graph_, *partition_));

  std::vector<std::vector<graph::VertexId>> finished;
  if (output != nullptr) {
    finished.resize(queries.size());
  }

  DistributedRunStats stats;
  // Replicated boards never exchange walkers, so each board is an
  // independent shard: its own ClusterSim, driven closed-loop from its
  // own round-robin slice of the query set, refilled by its own retires.
  // Faults couple boards (failover recovers walkers onto survivors), so
  // a schedule that can inject anything falls back to the single
  // coupled event loop below.
  const bool sharded = config_.replicate_graph &&
                       !config_.board.faults.AnyFaultsPossible() &&
                       num_boards > 1;
  const uint32_t threads = SimThreadPool::ResolveThreads(config_.num_threads);
  if (sharded) {
    // All vertices on local board 0 of every shard (replication makes
    // ownership irrelevant; the partition only sizes the sim).
    const Partition single(
        std::vector<BoardId>(graph_->num_vertices(), 0), 1);
    std::vector<DistributedRunStats> shard_stats(num_boards);
    // Tickets (= span trace ids) are disjoint across shards.
    core::SinkShards sinks(config_.board, num_boards);
    SimThreadPool::ParallelFor(threads, num_boards, [&](size_t b) {
      DistributedConfig shard_config = config_;
      shard_config.first_board = static_cast<BoardId>(b);
      shard_config.board = sinks.Shard(b);
      // Shard b runs tickets b, b + num_boards, ... through its own
      // path pass; the shards already occupy the workers.
      PathWindow paths(graph_, app_, config_, queries, b, num_boards,
                       /*threads=*/1);
      const size_t num_walkers = std::min<size_t>(
          config_.inflight_walkers_per_board, paths.size());
      ClusterSim sim(graph_, app_, &single, shard_config,
                     static_cast<uint32_t>(std::max<size_t>(num_walkers,
                                                            1)));
      size_t next_query = 0;
      auto load = [&](hwsim::Cycle at) {
        if (next_query >= paths.size()) {
          return;
        }
        sim.Launch(paths.Path(next_query++), /*board=*/0, at);
      };
      sim.set_on_retire([&](const WalkerEnd& end,
                            std::vector<graph::VertexId>&& path) {
        if (output != nullptr) {
          finished[end.ticket] = std::move(path);
        }
        ++shard_stats[b].queries;
        load(end.at);
      });
      for (size_t i = 0; i < num_walkers; ++i) {
        load(0);
      }
      sim.Drain();
      sim.Finalize(&shard_stats[b]);
    });
    sinks.Merge();
    for (BoardId b = 0; b < num_boards; ++b) {
      stats.Accumulate(shard_stats[b]);
    }
    stats.seconds = static_cast<double>(stats.cycles) /
                    config_.board.dram.clock_hz;
  } else {
    const size_t max_inflight = static_cast<size_t>(num_boards) *
                                config_.inflight_walkers_per_board;
    const size_t num_walkers = std::min(max_inflight, queries.size());
    ClusterSim sim(graph_, app_, partition_, config_,
                   static_cast<uint32_t>(num_walkers));
    PathWindow paths(graph_, app_, config_, queries, 0, 1, threads);

    size_t next_query = 0;
    auto load = [&](hwsim::Cycle at) {
      if (next_query >= queries.size()) {
        return;
      }
      const size_t qi = next_query++;
      const apps::WalkQuery& q = queries[qi];
      // Replicated mode keeps a walker on its initial board for its
      // whole life (any board can serve any vertex); partitioned mode
      // dispatches to whichever board serves the start vertex's share
      // (the owner, its rebuilt spare, or a survivor).
      BoardId board;
      if (config_.replicate_graph) {
        board = static_cast<BoardId>(qi % num_boards);
        // During a total-owner-loss window (durable store only) there
        // is no survivor to reroute to: launch onto the dead board and
        // let the walker's first event park it until a rebuild lands.
        if (!sim.IsAlive(board) && sim.has_survivor()) {
          board = sim.SurvivorOf(qi);
        }
      } else {
        board = sim.LiveOwnerOf(q.start);
      }
      sim.Launch(paths.Path(qi), board, at);
    };

    sim.set_on_retire([&](const WalkerEnd& end,
                          std::vector<graph::VertexId>&& path) {
      if (output != nullptr) {
        finished[end.ticket] = std::move(path);
      }
      ++stats.queries;
      // Keep the freed slot busy: the batch workload is closed-loop.
      load(end.at);
    });

    for (size_t i = 0; i < num_walkers; ++i) {
      load(0);
    }
    sim.Drain();
    sim.Finalize(&stats);
  }

  if (output != nullptr) {
    for (auto& path : finished) {
      output->vertices.insert(output->vertices.end(), path.begin(),
                              path.end());
      output->offsets.push_back(
          static_cast<uint32_t>(output->vertices.size()));
    }
  }
  return stats;
}

}  // namespace lightrw::distributed
