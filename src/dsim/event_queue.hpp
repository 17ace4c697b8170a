// The simulation kernel's pending-event set: a binary heap, O(log n) per
// operation for any event-time distribution, plus delay lanes that let
// events scheduled the same delay ahead skip it.
//
// It gives the total order the rest of the library relies on: ascending
// time, FIFO (sequence) within equal times. The queue is not virtual and
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
//
// Delay lanes. In a store-and-forward fabric a hop's transmission time
// depends only on packet size and link rate (441 B at 39.375 B/tu is
// 11.2 tu on every link), so most of the fabrics' pushes are scheduled one
// of a few repeated delays ahead, and events pushed the same delay ahead
// come due in push order. Beside the heap sit kLanes FIFO rings of keys,
// each tagged with one delay. Simulator::schedule_in(dt) passes the bit
// pattern of dt as the push's tag (delay_tag; -0 is folded to +0);
// schedule_at passes none, because t - now need not reproduce the caller's
// delay bits. A tagged push appends to the lane its tag hashes to when
// that lane carries the tag and the new key is not earlier than the lane's
// last key, so every lane stays sorted by construction. An empty lane
// adopts a tag only when the tag arrives twice in a row, so one-off delays
// such as RPC think gaps stay in the heap, and it keeps the tag while it
// is empty. Every other push goes to the heap. pop and next_time take the
// least (time, seq) among the heap top and the non-empty lane fronts,
// found once per executed event, so the execution order is the heap's own.
//
// The gate. Lanes take pushes only while at least kLaneGate events are
// pending. Below it the heap is a few levels deep and cheap, while the
// extra earliest-source choice is not: measured on an earlier build of
// this design, single_link_wtp (at most 4 pending events) lost 10%
// packets/s with ungated lanes (0 of 6 alternating perfbench pairs won)
// and 1.5% with the gate (5 of 10, inside the parent's spread); this
// build lost 4.2% (1 of 5 won, also inside it). The gate sits between
// that workload and the fabrics' ~86 (fabric_faults) and ~1,370
// (fabric_rpc) pending events. Lanes carry 93% of fabric_rpc's pushes,
// 90% of fabric_faults' and none of single_link_wtp's, and fabric_rpc
// runs 31-34% more packets/s (EXPERIMENTS.md, "Delay lanes").
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  // The delay an event was scheduled with, as a bit pattern, or kNoDelay.
  using DelayTag = std::uint64_t;
  static constexpr DelayTag kNoDelay = ~DelayTag{0};  // a NaN pattern
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kLaneGate = 32;

  // The tag of a push `delay >= 0` ahead. -0 and +0 give the same time, so
  // they share a tag.
  static DelayTag delay_tag(SimTime delay) noexcept {
    return delay == 0.0 ? DelayTag{0} : std::bit_cast<DelayTag>(delay);
  }

  // Queues `action` at (time, seq). The caller keeps every (time, seq)
  // pair unique; Simulator numbers its events from one counter. `tag` may
  // route the key to a delay lane; it never changes the pop order.
  void push(SimTime time, std::uint64_t seq, SimEvent&& action,
            DelayTag tag = kNoDelay) {
    Lane* lane = nullptr;
    if (tag != kNoDelay && size() >= kLaneGate) {
      Lane& candidate = lanes_[lane_index(tag)];
      if (candidate.tag == tag &&
          (candidate.count == 0 ||
           !earlier(Key{time, seq, 0}, candidate.back()))) {
        // Grown before the event takes its slot: a failed allocation
        // leaves the queue unchanged.
        if (candidate.count == candidate.ring.size()) candidate.grow();
        lane = &candidate;
      } else if (candidate.count == 0) {
        candidate.tag = tag;  // adopted if the next push here repeats it
      }
    }
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
    next_ = kUnknown;
    const Key key{time, seq, slot};
    if (lane != nullptr) {
      const std::size_t mask = lane->ring.size() - 1;
      lane->ring[(lane->head + lane->count) & mask] = key;
      if (lane->count++ == 0) {
        busy_ |= 1u << static_cast<unsigned>(lane - lanes_.data());
      }
      ++in_lanes_;
      return;
    }
    // Hole technique: grow by one empty position, shift ancestors down
    // into the hole, and place the new key once.
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
    PDS_REQUIRE(!empty());
    const std::size_t source = busy_ == 0 ? kHeap : earliest();
    next_ = kUnknown;
    const Key top = source == kHeap ? pop_heap() : pop_lane(source);
    // The event leaves its slot as the result is built; the next push
    // takes the slot back.
    free_.push_back(top.slot);
    return EventItem{top.time, top.seq, std::move(pool_[top.slot])};
  }

  // Time of the earliest event. Requires !empty().
  SimTime next_time() {
    PDS_REQUIRE(!empty());
    if (busy_ == 0) return heap_.front().time;
    const std::size_t source = earliest();
    return source == kHeap ? heap_.front().time : lanes_[source].front().time;
  }

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return heap_.size() + in_lanes_; }
  // Pending events that ride a delay lane rather than the heap.
  std::size_t in_lanes() const noexcept { return in_lanes_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::size_t slot;  // index into pool_
  };
  static_assert(sizeof(Key) == 24, "heap keys should stay 24 bytes");

  // A FIFO ring of keys in (time, seq) order; its capacity is zero or a
  // power of two and only grows.
  struct Lane {
    DelayTag tag = kNoDelay;
    std::vector<Key> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    const Key& front() const { return ring[head]; }
    const Key& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void grow() {
      std::vector<Key> bigger(std::max<std::size_t>(16, 2 * ring.size()));
      for (std::size_t k = 0; k < count; ++k) {
        bigger[k] = ring[(head + k) & (ring.size() - 1)];
      }
      ring = std::move(bigger);
      head = 0;
    }
  };

  // Sources of the earliest key: a lane index, the heap, or not yet known.
  static constexpr std::size_t kHeap = kLanes;
  static constexpr std::size_t kUnknown = kLanes + 1;

  static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Fibonacci hashing: the top three bits of tag * 2^64/phi.
  static std::size_t lane_index(DelayTag tag) noexcept {
    static_assert(kLanes == 8, "lane_index keeps three bits");
    return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >> 61);
  }

  // The source holding the least (time, seq), chosen once between a
  // change to the queue and the next pop. Requires a non-empty lane.
  std::size_t earliest() {
    if (next_ != kUnknown) return next_;
    std::size_t best = kHeap;
    const Key* least = heap_.empty() ? nullptr : &heap_.front();
    for (unsigned busy = busy_; busy != 0; busy &= busy - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(busy));
      const Key& front = lanes_[lane].front();
      if (least == nullptr || earlier(front, *least)) {
        best = lane;
        least = &front;
      }
    }
    next_ = best;
    return best;
  }

  Key pop_heap() {
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
    return top;
  }

  Key pop_lane(std::size_t index) {
    Lane& lane = lanes_[index];
    const Key top = lane.front();
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    if (--lane.count == 0) busy_ &= ~(1u << static_cast<unsigned>(index));
    --in_lanes_;
    return top;
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
  std::array<Lane, kLanes> lanes_;
  unsigned busy_ = 0;              // bit i set: lanes_[i] is non-empty
  std::size_t in_lanes_ = 0;       // keys held by all lanes
  std::size_t next_ = kUnknown;    // earliest source, while busy_ != 0
  std::vector<SimEvent> pool_;     // one slot per pending event
  std::vector<std::size_t> free_;  // vacated slots, last vacated on top
};

// Exists only for perfbench/traced.cpp, which constructs
// `Simulator(config.event_queue)`: the binary heap is the one pending-event
// set, and nothing reads this tag.
enum class EventQueueKind { kBinaryHeap };

}  // namespace pds
