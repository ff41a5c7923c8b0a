// Pending events of a fixed set of slots, popped in (cycle, slot) order.
//
// The simulators' walker loops give every in-flight walk a slot, and a
// slot never has two pending events: each handler schedules the slot's
// next event or ends it. SlotEvents uses that. It is a winner tree over
// the slots whose nodes store the (cycle, slot) minimum of their
// subtree, so the next event is the root, and setting or cancelling a
// slot replays one leaf-to-root path with a branchless select. A left
// child holds lower slots than its sibling and wins ties, which makes the
// order (cycle, slot) exactly, the order of a min-heap of such pairs.
//
// The driver reads the root and leaves it in place: the handler's Set()
// or Cancel() of the same slot is the event's only update.

#ifndef LIGHTRW_HWSIM_SLOT_EVENTS_H_
#define LIGHTRW_HWSIM_SLOT_EVENTS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "hwsim/dram.h"

namespace lightrw::hwsim {

class SlotEvents {
 public:
  // Slots are 0 .. num_slots - 1, none pending.
  explicit SlotEvents(size_t num_slots)
      : leaves_(std::bit_ceil(std::max<size_t>(num_slots, 1))),
        nodes_(2 * leaves_) {
    for (size_t i = 0; i < leaves_; ++i) {
      nodes_[leaves_ + i] = {kNone, i};
    }
    for (size_t i = leaves_ - 1; i != 0; --i) {
      nodes_[i] = nodes_[2 * i];
    }
  }

  bool empty() const { return nodes_[1].cycle == kNone; }
  // The earliest pending event (lowest slot on ties). Requires !empty().
  Cycle top_cycle() const { return nodes_[1].cycle; }
  size_t top_slot() const { return nodes_[1].slot; }
  bool pending(size_t slot) const {
    return nodes_[leaves_ + slot].cycle != kNone;
  }

  // Schedules `slot` at cycle `at`, replacing its pending event if any.
  void Set(size_t slot, Cycle at) {
    LIGHTRW_DCHECK(at != kNone);
    Replay(slot, at);
  }
  // Drops `slot`'s pending event, if any.
  void Cancel(size_t slot) { Replay(slot, kNone); }

 private:
  struct Node {
    Cycle cycle = 0;
    size_t slot = 0;
  };
  // Cycle of a slot with no pending event.
  static constexpr Cycle kNone = ~Cycle{0};

  void Replay(size_t slot, Cycle at) {
    LIGHTRW_DCHECK(slot < leaves_);
    size_t i = leaves_ + slot;
    nodes_[i].cycle = at;
    for (i >>= 1; i != 0; i >>= 1) {
      const size_t left = 2 * i;
      nodes_[i] = nodes_[left + (nodes_[left + 1].cycle < nodes_[left].cycle)];
    }
  }

  size_t leaves_;
  // nodes_[1] is the root, nodes_[leaves_ + s] slot s's leaf.
  std::vector<Node> nodes_;
};

}  // namespace lightrw::hwsim

#endif  // LIGHTRW_HWSIM_SLOT_EVENTS_H_
