// The walk of one ticket, and the pass that computes many of them.
//
// A ClusterSim walk's path is a pure function of (seed, ticket, options):
// its PWRS lanes and its stop/uniform stream are keyed on the ticket, and
// the timing model never feeds back into them. TicketWalk is that
// function, one step at a time. It is the only code that draws a
// ClusterSim walk's random numbers: a service walker steps it once per
// Fetch event, and PathRing steps a ring of them to compute batch paths
// before the event loop times them.

#ifndef LIGHTRW_LIGHTRW_TICKET_WALK_H_
#define LIGHTRW_LIGHTRW_TICKET_WALK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/walk_app.h"
#include "graph/csr.h"
#include "lightrw/step_sampler.h"
#include "rng/rng.h"

namespace lightrw::core {

// One ticket's walk. Draw order per step: the PWRS lanes (or one
// uniform pick from the stop/uniform stream), then one stop coin from
// that stream when the app stops walks early. Not movable: the sampler
// holds a pointer to the lanes.
class TicketWalk {
 public:
  TicketWalk(const CsrGraph* graph, const WalkApp* app, size_t parallelism);
  TicketWalk(const TicketWalk&) = delete;
  TicketWalk& operator=(const TicketWalk&) = delete;

  // Starts the walk of `ticket` at `start`, with its streams keyed on
  // (seed, ticket). `uniform`: every step picks a neighbor uniformly
  // (the service's degraded steps) instead of by PWRS.
  void Start(uint64_t seed, uint64_t ticket, VertexId start, bool uniform);

  const WalkState& state() const { return state_; }
  // True when the last step's stop coin ended the walk.
  bool stopped() const { return stopped_; }

  // A step in two halves, for callers that read the chosen neighbor
  // later. PickEdge draws the step's choice: an index into
  // N(state().curr), or sampling::kNoSample when the vertex has no
  // neighbor or all its weights are zero (the walk ends there).
  size_t PickEdge();
  // Moves to `next`, the neighbor PickEdge chose, and draws the stop coin.
  void Advance(VertexId next);

  // A whole step: the next vertex, or kInvalidVertex where PickEdge
  // returns kNoSample.
  VertexId Step();

 private:
  const CsrGraph* graph_;
  const WalkApp* app_;
  double stop_probability_;
  rng::ThunderingRng lanes_;
  rng::Xoshiro256StarStar aux_{0};  // stop coins and uniform picks
  StepSampler sampler_;
  WalkState state_;
  bool uniform_ = false;
  bool stopped_ = false;
};

// A ticket's path as a path pass leaves it.
struct TicketPath {
  uint64_t ticket = 0;
  apps::WalkQuery query;
  std::vector<graph::VertexId> vertices;  // the start vertex first
  bool stopped = false;  // the last step's stop coin ended the walk
};

// Computes weighted (PWRS) paths for tickets. A fixed ring of walks
// moves through three stages per step, each starting the load the next
// stage of that walk reads, so one walk's misses overlap the others'
// work: (a) read the row entry and prefetch the heads of N(curr)'s
// weights (and N(curr) for dynamic apps); (b) run PWRS and prefetch the
// chosen neighbor; (c) read it, append it, prefetch its row entry.
// Paths do not depend on the ring order. Not thread-safe; one per worker.
class PathRing {
 public:
  PathRing(const CsrGraph* graph, const WalkApp* app, size_t parallelism);

  // Fills the vertices and `stopped` of paths[i] for each i it claims
  // from `cursor`, until the claims run past the end. Rings on
  // several threads share one span and cursor: a path depends only on
  // its ticket, and a ring whose thread runs slowly claims fewer paths.
  void Walk(uint64_t seed, std::span<TicketPath> paths,
            std::atomic<size_t>& cursor);

 private:
  const CsrGraph* graph_;
  const WalkApp* app_;
  std::vector<std::unique_ptr<TicketWalk>> walks_;
};

}  // namespace lightrw::core

#endif  // LIGHTRW_LIGHTRW_TICKET_WALK_H_
