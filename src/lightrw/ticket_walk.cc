#include "lightrw/ticket_walk.h"

#include "sampling/sampler.h"

namespace lightrw::core {
namespace {

// Walks in flight in one PathRing: a stage's load has the other walks'
// stages to hide behind. On a graph larger than the host caches, 64
// walks measured the same as 16 and 4 were slower.
constexpr size_t kRingSize = 16;

}  // namespace

TicketWalk::TicketWalk(const CsrGraph* graph, const WalkApp* app,
                       size_t parallelism)
    : graph_(graph),
      app_(app),
      stop_probability_(app->stop_probability()),
      lanes_(parallelism, 0),
      sampler_(parallelism, &lanes_) {}

void TicketWalk::Start(uint64_t seed, uint64_t ticket, VertexId start,
                       bool uniform) {
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

size_t TicketWalk::PickEdge() {
  if (uniform_) {
    const uint32_t degree = graph_->Degree(state_.curr);
    return degree == 0 ? sampling::kNoSample : aux_.NextBounded(degree);
  }
  return sampler_.SampleIndex(*graph_, *app_, state_);
}

void TicketWalk::Advance(VertexId next) {
  state_.prev = state_.curr;
  state_.curr = next;
  ++state_.step;
  stopped_ = stop_probability_ > 0.0 && aux_.NextUnit() < stop_probability_;
}

VertexId TicketWalk::Step() {
  const size_t edge = PickEdge();
  if (edge == sampling::kNoSample) {
    return graph::kInvalidVertex;
  }
  const VertexId next = graph_->Neighbors(state_.curr)[edge];
  Advance(next);
  return next;
}

PathRing::PathRing(const CsrGraph* graph, const WalkApp* app,
                   size_t parallelism)
    : graph_(graph), app_(app) {
  walks_.reserve(kRingSize);
  for (size_t i = 0; i < kRingSize; ++i) {
    walks_.push_back(std::make_unique<TicketWalk>(graph, app, parallelism));
  }
}

void PathRing::Walk(uint64_t seed, std::span<TicketPath> paths,
                    std::atomic<size_t>& cursor) {
  enum class Stage : uint8_t { kRow, kPick, kRead };
  struct Slot {
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
        walks_[s]->Start(seed, p.ticket, p.query.start, /*uniform=*/false);
        graph_->PrefetchRow(p.query.start);
        slots[s] = {&p, 0, Stage::kRow};
        return true;
      }
    }
  };

  size_t active = 0;
  for (size_t s = 0; s < kRingSize; ++s) {
    active += load(s) ? 1 : 0;
  }
  while (active > 0) {
    for (size_t s = 0; s < kRingSize; ++s) {
      Slot& slot = slots[s];
      if (slot.path == nullptr) {
        continue;
      }
      TicketWalk& walk = *walks_[s];
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

}  // namespace lightrw::core
