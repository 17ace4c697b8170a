// The simulation kernel's pending-event set: a binary heap, O(log n) per
// operation for any event-time distribution.
//
// It gives the total order the rest of the library relies on: ascending
// time, FIFO (sequence) within equal times. The heap is not virtual and
// lives in Simulator by value, so every push/pop/next_time in the kernel's
// run loop is a direct, fully inlinable call.
//
// Keys apart from events. The heap sifts 24-byte {time, seq, slot} keys;
// each 64-byte SimEvent stays in one slot of a pool from push to pop, and a
// LIFO free list hands the slot the last pop vacated to the next push, so
// the first event a running action schedules takes the slot the action's
// own event just left. With the event inside an 80-byte heap element, the
// fabric_rpc workload's ~1,400 pending events (mostly RPC think and RTO
// timers) made a ~107 KiB heap, and every sift level moved a whole event;
// as keys the heap is ~33 KiB and an event moves twice, into its slot and
// out. In alternating perfbench pairs on a 4-CPU host, packets/s rose by
// 6-12% on fabric_rpc (three sets of 10), 9% on fabric_faults and 6% on
// single_link_wtp (~4 pending events, where only the saved moves count;
// EXPERIMENTS.md, "Keys apart from events").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dsim/sim_event.hpp"
#include "dsim/time.hpp"
#include "util/contracts.hpp"

namespace pds {

// One popped event: the action is moved out of its pool slot, so the slot
// can be reused (and the pool regrown) by whatever the action schedules.
struct EventItem {
  SimTime time;
  std::uint64_t seq;
  SimEvent action;

  const char* label() const noexcept { return action.label(); }
};

// Hand-rolled over a vector, and kept on a measurement: std::push_heap and
// std::pop_heap with the same (time, seq) order ran the packet pipeline of
// bench/micro_event_queue about 23% slower (fewer events/s in 12 of 12
// interleaved pairs, EXPERIMENTS.md). Push and pop sift a hole, one key
// copy per level, and pop stops as soon as the former tail fits. A 4-ary
// heap and 16-byte keys (slot packed under the sequence number) did not
// pay on fabric_rpc (EXPERIMENTS.md). Header-inline so the kernel's run
// loop can flatten push/pop into straight-line code.
class HeapEventQueue final {
 public:
  // Queues `action` at (time, seq). The caller keeps every (time, seq)
  // pair unique; Simulator numbers its events from one counter.
  void push(SimTime time, std::uint64_t seq, SimEvent&& action) {
    std::size_t slot;
    if (free_.empty()) {
      if (pool_.size() == pool_.capacity()) grow();
      slot = pool_.size();
      pool_.push_back(std::move(action));
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = std::move(action);
    }
    // Hole technique: grow by one empty position, shift ancestors down
    // into the hole, and place the new key once.
    const Key key{time, seq, slot};
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(key, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  // Removes and returns the earliest event (time, then seq). Requires
  // !empty().
  EventItem pop() {
    PDS_REQUIRE(!heap_.empty());
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift the former tail down through the root hole, again with one
      // key copy per level.
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        const std::size_t right = child + 1;
        if (right < n && earlier(heap_[right], heap_[child])) child = right;
        if (!earlier(heap_[child], last)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = last;
    }
    // The event leaves its slot as the result is built; the next push
    // takes the slot back.
    free_.push_back(top.slot);
    return EventItem{top.time, top.seq, std::move(pool_[top.slot])};
  }

  // Time of the earliest event. Requires !empty().
  SimTime next_time() const {
    PDS_REQUIRE(!heap_.empty());
    return heap_.front().time;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::size_t slot;  // index into pool_
  };
  static_assert(sizeof(Key) == 24, "heap keys should stay 24 bytes");

  static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Grows all three vectors to one new capacity before the pool fills.
  // The heap never holds more keys, nor the free list more slots, than the
  // pool has slots, so no push or pop between two growths allocates, and a
  // failed growth leaves the queue unchanged.
  void grow() {
    pool_.reserve(std::max<std::size_t>(16, 2 * pool_.capacity()));
    heap_.reserve(pool_.capacity());
    free_.reserve(pool_.capacity());
  }

  std::vector<Key> heap_;          // min-heap on (time, seq)
  std::vector<SimEvent> pool_;     // one slot per pending event
  std::vector<std::size_t> free_;  // vacated slots, last vacated on top
};

// Exists only for perfbench/traced.cpp, which constructs
// `Simulator(config.event_queue)`: the binary heap is the one pending-event
// set, and nothing reads this tag.
enum class EventQueueKind { kBinaryHeap };

}  // namespace pds
