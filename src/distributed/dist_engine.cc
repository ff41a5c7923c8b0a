#include "distributed/dist_engine.h"

#include <algorithm>
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

// Runs walks 0, 1, ... of `paths` closed-loop on `sim`: `num_walkers` in
// flight from cycle 0, each launched on the board `board_of(path)` picks,
// and each retire refilling its slot with the next walk. A retired path
// goes to (*finished)[ticket] when `finished` is non-null.
template <typename BoardOf>
void RunClosedLoop(ClusterSim& sim, core::PathWindow& paths,
                   size_t num_walkers, const BoardOf& board_of,
                   std::vector<std::vector<graph::VertexId>>* finished,
                   DistributedRunStats* stats) {
  size_t next = 0;
  auto load = [&](hwsim::Cycle at) {
    if (next >= paths.size()) {
      return;
    }
    const core::TicketPath& path = paths.Path(next++);
    sim.Launch(path, board_of(path), at);
  };
  sim.set_on_retire([&](const WalkerEnd& end,
                        std::vector<graph::VertexId>&& path) {
    if (finished != nullptr) {
      (*finished)[end.ticket] = std::move(path);
    }
    ++stats->queries;
    load(end.at);
  });
  for (size_t i = 0; i < num_walkers; ++i) {
    load(0);
  }
  sim.Drain();
  sim.Finalize(stats);
}

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
  auto* keep = output != nullptr ? &finished : nullptr;

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
  const size_t parallelism = config_.board.sampler_parallelism;
  const uint64_t seed = config_.board.seed;
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
      core::PathWindow paths(graph_, app_, parallelism, seed, queries, b,
                             num_boards, /*threads=*/1);
      const size_t num_walkers = std::min<size_t>(
          config_.inflight_walkers_per_board, paths.size());
      ClusterSim sim(graph_, app_, &single, shard_config,
                     static_cast<uint32_t>(std::max<size_t>(num_walkers,
                                                            1)));
      RunClosedLoop(
          sim, paths, num_walkers,
          [](const core::TicketPath&) { return BoardId{0}; }, keep,
          &shard_stats[b]);
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
    core::PathWindow paths(graph_, app_, parallelism, seed, queries, 0, 1,
                           threads);
    // Replicated mode keeps a walker on its initial board for its whole
    // life (any board can serve any vertex); partitioned mode dispatches
    // to whichever board serves the start vertex's share (the owner, its
    // rebuilt spare, or a survivor).
    auto board_of = [&](const core::TicketPath& path) {
      if (!config_.replicate_graph) {
        return sim.LiveOwnerOf(path.query.start);
      }
      // During a total-owner-loss window (durable store only) there is
      // no survivor to reroute to: launch onto the dead board and let
      // the walker's first event park it until a rebuild lands.
      const BoardId board = static_cast<BoardId>(path.ticket % num_boards);
      return !sim.IsAlive(board) && sim.has_survivor()
                 ? sim.SurvivorOf(path.ticket)
                 : board;
    };
    RunClosedLoop(sim, paths, num_walkers, board_of, keep, &stats);
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
