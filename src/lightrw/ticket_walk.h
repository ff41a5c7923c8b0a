// The path pass: the walks of tickets, computed ahead of whoever uses
// them.
//
// A walk's path is a pure function of (seed, ticket, query, uniform): its
// PWRS lanes and its stop/uniform stream are keyed on the ticket, and no
// timing decision feeds back into them. PathRing computes such paths, a
// ring of walks at a time, and PathWindow runs rings on the host's
// threads over a run's query set. They are the only code that produces a
// walk outside CycleEngine: FunctionalEngine is a PathWindow pass, the
// batch driver of ClusterSim times the paths of a PathWindow, the service
// computes each attempt's path at dispatch with a PathRing, and the chaos
// campaign's path-identity reference is a FunctionalEngine run.

#ifndef LIGHTRW_LIGHTRW_TICKET_WALK_H_
#define LIGHTRW_LIGHTRW_TICKET_WALK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/walk_app.h"
#include "common/check.h"
#include "graph/csr.h"

namespace lightrw::core {

// A ticket's path as a path pass leaves it. The pass reads ticket,
// query and uniform and writes vertices and stopped.
struct TicketPath {
  uint64_t ticket = 0;
  apps::WalkQuery query;
  // Every step picks a neighbor uniformly instead of by PWRS.
  bool uniform = false;
  std::vector<graph::VertexId> vertices;  // the start vertex first
  bool stopped = false;  // the last step's stop coin ended the walk
};

// Computes the paths of tickets. A fixed ring of walks moves through
// three stages per step, each starting the load the next stage of that
// walk reads, so one walk's misses overlap the others' work: (a) read
// the row entry and prefetch the heads of N(curr)'s weights (and N(curr)
// for dynamic apps); (b) pick the edge (PWRS, or uniformly) and prefetch
// the chosen neighbor; (c) read it, append it, prefetch its row entry.
// Per step a walk draws its PWRS lanes (or one uniform pick from its
// stop/uniform stream), then one stop coin from that stream when the app
// stops walks early. Paths do not depend on the ring order. Not
// thread-safe; one per worker.
class PathRing {
 public:
  PathRing(const graph::CsrGraph* graph, const apps::WalkApp* app,
           size_t parallelism);
  ~PathRing();

  // Fills the vertices and `stopped` of paths[i] for each i it claims
  // from `cursor`, until the claims run past the end. Rings on
  // several threads share one span and cursor: a path depends only on
  // its ticket, and a ring whose thread runs slowly claims fewer paths.
  void Walk(uint64_t seed, std::span<TicketPath> paths,
            std::atomic<size_t>& cursor);

 private:
  struct Walks;  // the ring's walk state, defined in ticket_walk.cc

  const graph::CsrGraph* graph_;
  const apps::WalkApp* app_;
  std::unique_ptr<Walks> walks_;
};

// The paths of a run's walks, computed one window of tickets ahead of
// the caller. The run's j-th walk is ticket first + j * stride and
// executes queries[ticket]. Up to `threads` workers, each stepping its
// own PathRing, claim a window's tickets one at a time, so the paths are
// the same at every thread count.
class PathWindow {
 public:
  PathWindow(const graph::CsrGraph* graph, const apps::WalkApp* app,
             size_t sampler_parallelism, uint64_t seed,
             std::span<const apps::WalkQuery> queries, size_t first,
             size_t stride, uint32_t threads);

  // Walks in the run.
  size_t size() const { return size_; }

  // The path of walk j. j must not decrease from one call to the next:
  // computing a window overwrites the previous one.
  const TicketPath& Path(size_t j) {
    LIGHTRW_DCHECK(j >= begin_);
    if (j >= begin_ + paths_.size()) {
      Fill(j);
    }
    return paths_[j - begin_];
  }

 private:
  // Computes the window of walks j, j + 1, ... whose paths fit in the
  // window at their full lengths (at least walk j).
  void Fill(size_t j);

  std::span<const apps::WalkQuery> queries_;
  size_t first_;
  size_t stride_;
  uint64_t seed_;
  size_t size_;
  std::vector<std::unique_ptr<PathRing>> rings_;  // one per worker
  size_t begin_ = 0;  // walk index of paths_[0]
  std::vector<TicketPath> paths_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_TICKET_WALK_H_
