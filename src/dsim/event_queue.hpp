// The simulation kernel's pending-event set: a binary heap, O(log n) per
// operation for any event-time distribution.
//
// It gives the total order the rest of the library relies on: ascending
// time, FIFO (sequence) within equal times. The heap is not virtual and
// lives in Simulator by value, so every push/pop/next_time in the kernel's
// run loop is a direct, fully inlinable call.
#pragma once

#include <cstdint>
#include <vector>

#include "dsim/sim_event.hpp"
#include "dsim/time.hpp"
#include "util/contracts.hpp"

namespace pds {

// Move-only: the action is a SimEvent (small-buffer callable with the
// profiling label folded in — see dsim/sim_event.hpp). Queue operations
// relocate items without copying, so closures may own packets by move and
// per-event heap traffic is zero for inline-sized captures.
struct EventItem {
  SimTime time;
  std::uint64_t seq;
  SimEvent action;

  const char* label() const noexcept { return action.label(); }
};

// Hand-rolled over a vector, and kept on a measurement: std::push_heap and
// std::pop_heap with the same (time, seq) order also move the move-only
// items, but ran the packet pipeline of bench/micro_event_queue about 23%
// slower (fewer events/s in 12 of 12 interleaved pairs, EXPERIMENTS.md).
// Push and pop sift a hole, one relocation per level, and pop stops as soon
// as the former tail fits. Header-inline so the kernel's run loop can
// flatten push/pop into straight-line code.
class HeapEventQueue final {
 public:
  void push(EventItem item) {
    // Hole technique: grow by one empty slot, shift ancestors down into
    // the hole, and place the new item once — one relocation per level
    // instead of the three a swap-based sift-up performs.
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(item, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(item);
  }

  // Removes and returns the earliest item (time, then seq). Requires
  // !empty().
  EventItem pop() {
    PDS_REQUIRE(!heap_.empty());
    EventItem item = std::move(heap_.front());
    EventItem last = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift the former tail down through the root hole, again with one
      // relocation per level.
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        const std::size_t right = child + 1;
        if (right < n && earlier(heap_[right], heap_[child])) child = right;
        if (!earlier(heap_[child], last)) break;
        heap_[i] = std::move(heap_[child]);
        i = child;
      }
      heap_[i] = std::move(last);
    }
    return item;
  }

  // Time of the earliest item. Requires !empty().
  SimTime next_time() const {
    PDS_REQUIRE(!heap_.empty());
    return heap_.front().time;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  static bool earlier(const EventItem& a, const EventItem& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<EventItem> heap_;  // min-heap on (time, seq)
};

// Exists only for perfbench/traced.cpp, which constructs
// `Simulator(config.event_queue)`: the binary heap is the one pending-event
// set, and nothing reads this tag.
enum class EventQueueKind { kBinaryHeap };

}  // namespace pds
