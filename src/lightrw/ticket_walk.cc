#include "lightrw/ticket_walk.h"

#include <algorithm>
#include <deque>

#include "common/sim_thread_pool.h"
#include "lightrw/step_sampler.h"
#include "rng/rng.h"
#include "sampling/sampler.h"

namespace lightrw::core {
namespace {

// Walks in flight in one PathRing: a stage's load has the other walks'
// stages to hide behind. On a graph larger than the host caches, 64
// walks measured the same as 16 and 4 were slower.
constexpr size_t kRingSize = 16;

// Path vertices a PathWindow computes ahead of its caller, counting each
// ticket's whole length: 1 MB of paths.
constexpr size_t kWindowVertices = size_t{1} << 18;

// One ticket's walk. Draw order per step: the PWRS lanes (or one
// uniform pick from the stop/uniform stream), then one stop coin from
// that stream when the app stops walks early. Not movable: the sampler
// holds a pointer to the lanes.
class TicketWalk {
 public:
  TicketWalk(const CsrGraph* graph, const WalkApp* app, size_t parallelism)
      : graph_(graph),
        app_(app),
        stop_probability_(app->stop_probability()),
        lanes_(parallelism, 0),
        sampler_(parallelism, &lanes_) {}
  TicketWalk(const TicketWalk&) = delete;
  TicketWalk& operator=(const TicketWalk&) = delete;

  // Starts the walk of `ticket` at `start`, with its streams keyed on
  // (seed, ticket). `uniform`: every step picks a neighbor uniformly
  // (the service's degraded steps) instead of by PWRS.
  void Start(uint64_t seed, uint64_t ticket, VertexId start, bool uniform) {
    // Reseed re-keys the lanes in place: the state a fresh ThunderingRng
    // would hold, without its allocation.
    rng::SplitMix64 mix(seed + 0x9e3779b97f4a7c15ULL * (ticket + 1));
    lanes_.Reseed(lanes_.num_streams(), mix.Next());
    aux_ = rng::Xoshiro256StarStar(mix.Next());
    state_ = WalkState{};
    state_.curr = start;
    uniform_ = uniform;
    stopped_ = false;
  }

  const WalkState& state() const { return state_; }
  // True when the last step's stop coin ended the walk.
  bool stopped() const { return stopped_; }

  // Draws the step's choice: an index into N(state().curr), or
  // sampling::kNoSample when the vertex has no neighbor or all its
  // weights are zero (the walk ends there).
  size_t PickEdge() {
    if (uniform_) {
      const uint32_t degree = graph_->Degree(state_.curr);
      return degree == 0 ? sampling::kNoSample : aux_.NextBounded(degree);
    }
    return sampler_.SampleIndex(*graph_, *app_, state_);
  }

  // Moves to `next`, the neighbor PickEdge chose, and draws the stop coin.
  void Advance(VertexId next) {
    state_.prev = state_.curr;
    state_.curr = next;
    ++state_.step;
    stopped_ =
        stop_probability_ > 0.0 && aux_.NextUnit() < stop_probability_;
  }

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

}  // namespace

struct PathRing::Walks {
  std::deque<TicketWalk> ring;  // a deque never moves its elements
};

PathRing::PathRing(const CsrGraph* graph, const WalkApp* app,
                   size_t parallelism)
    : graph_(graph), app_(app), walks_(std::make_unique<Walks>()) {
  for (size_t i = 0; i < kRingSize; ++i) {
    walks_->ring.emplace_back(graph, app, parallelism);
  }
}

PathRing::~PathRing() = default;

void PathRing::Walk(uint64_t seed, std::span<TicketPath> paths,
                    std::atomic<size_t>& cursor) {
  enum class Stage : uint8_t { kRow, kPick, kRead };
  struct Slot {
    TicketWalk* walk = nullptr;
    TicketPath* path = nullptr;  // null once the paths run out
    size_t edge = 0;             // kPick's choice, read by kRead
    Stage stage = Stage::kRow;
  };
  Slot slots[kRingSize];
  // Puts the next path that takes a step into slot s; a path of length
  // 0 is only its start vertex. False when none is left.
  auto load = [&](size_t s) {
    slots[s].path = nullptr;
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= paths.size()) {
        return false;
      }
      TicketPath& p = paths[i];
      p.vertices.assign(1, p.query.start);
      p.stopped = false;
      if (p.query.length > 0) {
        slots[s].walk->Start(seed, p.ticket, p.query.start, p.uniform);
        graph_->PrefetchRow(p.query.start);
        slots[s].path = &p;
        slots[s].edge = 0;
        slots[s].stage = Stage::kRow;
        return true;
      }
    }
  };

  // No wider than the paths: the service's single path walks alone.
  const size_t width = std::min(kRingSize, paths.size());
  size_t active = 0;
  for (size_t s = 0; s < width; ++s) {
    slots[s].walk = &walks_->ring[s];
    active += load(s) ? 1 : 0;
  }
  while (active > 0) {
    for (size_t s = 0; s < width; ++s) {
      Slot& slot = slots[s];
      if (slot.path == nullptr) {
        continue;
      }
      TicketWalk& walk = *slot.walk;
      const VertexId curr = walk.state().curr;
      bool done = false;
      switch (slot.stage) {
        case Stage::kRow:
          if (graph_->Degree(curr) == 0) {
            done = true;
            break;
          }
          StepSampler::Prefetch(*graph_, *app_, curr);
          slot.stage = Stage::kPick;
          break;
        case Stage::kPick:
          slot.edge = walk.PickEdge();
          if (slot.edge == sampling::kNoSample) {
            done = true;
            break;
          }
          __builtin_prefetch(graph_->Neighbors(curr).data() + slot.edge);
          slot.stage = Stage::kRead;
          break;
        case Stage::kRead: {
          TicketPath& p = *slot.path;
          const VertexId next = graph_->Neighbors(curr)[slot.edge];
          p.vertices.push_back(next);
          walk.Advance(next);
          graph_->PrefetchRow(next);
          p.stopped = walk.stopped();
          done = walk.stopped() || walk.state().step >= p.query.length;
          slot.stage = Stage::kRow;
          break;
        }
      }
      if (done && !load(s)) {
        --active;
      }
    }
  }
}

PathWindow::PathWindow(const CsrGraph* graph, const WalkApp* app,
                       size_t sampler_parallelism, uint64_t seed,
                       std::span<const apps::WalkQuery> queries,
                       size_t first, size_t stride, uint32_t threads)
    : queries_(queries),
      first_(first),
      stride_(stride),
      seed_(seed),
      size_(queries.size() > first
                ? (queries.size() - first + stride - 1) / stride
                : 0) {
  for (size_t t = 0; t < std::min<size_t>(threads, size_); ++t) {
    rings_.push_back(
        std::make_unique<PathRing>(graph, app, sampler_parallelism));
  }
}

// A path reserves at most one window: a query whose length cap is far
// above what its walk reaches (a PPR walk ends on a stop coin) grows its
// vector only as far as it walks. A caller that does not keep its paths
// never holds more than a window of them.
void PathWindow::Fill(size_t j) {
  begin_ = j;
  paths_.clear();
  size_t vertices = 0;
  for (size_t k = j; k < size_; ++k) {
    const size_t ticket = first_ + k * stride_;
    const size_t room = size_t{queries_[ticket].length} + 1;
    if (!paths_.empty() && vertices + room > kWindowVertices) {
      break;
    }
    TicketPath& path = paths_.emplace_back();
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

}  // namespace lightrw::core
