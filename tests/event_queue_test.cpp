// The kernel's pending-event set must pop in ascending time, FIFO sequence
// within equal times, and hand back the action pushed with each key. The
// differentials below check the binary heap against oracles that share no
// code with it: a linear scan of a plain vector for the least (time, seq),
// and a stable sort of a scripted Simulator workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

void push(HeapEventQueue& q, SimTime t, std::uint64_t seq) {
  q.push(t, seq, [] {});
}

TEST(HeapEventQueue, PopsInTimeOrder) {
  HeapEventQueue q;
  push(q, 5.0, 0);
  push(q, 1.0, 1);
  push(q, 3.0, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(HeapEventQueue, FifoWithinEqualTimes) {
  HeapEventQueue q;
  for (std::uint64_t s = 0; s < 20; ++s) push(q, 7.0, s);
  for (std::uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(q.pop().seq, s);
  }
}

TEST(HeapEventQueue, InterleavedPushPop) {
  HeapEventQueue q;
  push(q, 10.0, 0);
  push(q, 20.0, 1);
  EXPECT_DOUBLE_EQ(q.pop().time, 10.0);
  push(q, 15.0, 2);  // between the popped head and the remainder
  push(q, 12.0, 3);
  EXPECT_DOUBLE_EQ(q.pop().time, 12.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 15.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 20.0);
}

TEST(HeapEventQueue, SparseJumpsFarAhead) {
  HeapEventQueue q;
  push(q, 1.0, 0);
  push(q, 1e9, 1);
  push(q, 2e9, 2);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1e9);
  push(q, 1.5e9, 3);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.5e9);
  EXPECT_DOUBLE_EQ(q.pop().time, 2e9);
}

TEST(HeapEventQueue, LanesTakeRepeatedDelaysOnlyAboveTheGate) {
  // Below the gate every push goes to the heap. Above it, a delay's first
  // push goes to the heap and names it for the lane, its second rides the
  // lane, and an untagged push at the same time stays in the heap; the
  // pops interleave both sources in (time, seq) order.
  HeapEventQueue q;
  const auto tag = HeapEventQueue::delay_tag(2.5);
  std::uint64_t seq = 0;
  for (; seq < HeapEventQueue::kLaneGate - 1; ++seq) {
    q.push(2.5 + static_cast<double>(seq), seq, [] {}, tag);
  }
  EXPECT_EQ(q.in_lanes(), 0u);
  q.push(1000.0, seq++, [] {});  // the 32nd pending event opens the gate
  q.push(3.0, seq++, [] {}, tag);
  EXPECT_EQ(q.in_lanes(), 0u);
  q.push(3.0, seq++, [] {}, tag);
  q.push(3.5, seq++, [] {}, tag);
  EXPECT_EQ(q.in_lanes(), 2u);
  q.push(3.0, seq++, [] {});
  EXPECT_EQ(q.in_lanes(), 2u);
  const std::vector<std::uint64_t> expected = {0, 32, 33, 35, 1, 34, 2};
  for (const std::uint64_t want : expected) EXPECT_EQ(q.pop().seq, want);
  EXPECT_EQ(q.in_lanes(), 0u);
}

// The oracle: pending (time, seq) pairs in a plain vector, popped by a
// linear scan for the least pair.
std::pair<SimTime, std::uint64_t> pop_least(
    std::vector<std::pair<SimTime, std::uint64_t>>& pending) {
  const auto it = std::min_element(pending.begin(), pending.end());
  const auto least = *it;
  pending.erase(it);
  return least;
}

// A push of the tagged profile: a time, a sequence number and the
// delay tag the push carries.
struct TaggedPush {
  SimTime time;
  std::uint64_t seq;
  HeapEventQueue::DelayTag tag;
};

// Draws the tagged profile's pushes. Each phase (a climb from an empty
// queue) has twelve repeating delays, more than there are lanes, so at
// least two of them share a lane. The repeating delays are multiples of
// 1/4, so pushes of different delays, and untagged pushes, tie in time
// with lane keys. The styles:
//   60%  a repeating delay ahead, tagged with it;
//   10%  a one-off delay, tagged with it;
//   10%  a repeating delay ahead, untagged (the heap's side of a tie);
//   10%  a repeating delay ahead with a sequence number counted down from
//        2^40, so pushes made at one time carry falling (time, seq) keys;
//   10%  zero delay, as +0 or -0.
class TaggedPushes {
 public:
  explicit TaggedPushes(std::uint64_t seed) : rng_(seed * 7919) {
    new_delays();
  }

  void new_delays() {
    for (double& d : delays_) {
      d = 0.25 * static_cast<double>(1 + rng_.uniform_index(160));
    }
  }

  TaggedPush next(SimTime now) {
    const auto style = rng_.uniform_index(10);
    const double repeated = delays_[rng_.uniform_index(delays_.size())];
    if (style < 6) return {now + repeated, up_++, tag(repeated)};
    if (style == 6) {
      const double one_off = rng_.uniform01() * 40.0;
      return {now + one_off, up_++, tag(one_off)};
    }
    if (style == 7) return {now + repeated, up_++, HeapEventQueue::kNoDelay};
    if (style == 8) return {now + repeated, down_--, tag(repeated)};
    const double zero = rng_.uniform_index(2) == 0 ? 0.0 : -0.0;
    return {now + zero, up_++, tag(zero)};
  }

 private:
  static HeapEventQueue::DelayTag tag(double delay) {
    return HeapEventQueue::delay_tag(delay);
  }

  Rng rng_;
  std::array<double, 12> delays_{};
  std::uint64_t up_ = 0;
  std::uint64_t down_ = std::uint64_t{1} << 40;
};

TEST(EventQueueDifferential, RandomWorkloadsAgreeExactly) {
  // Mixed pushes and pops with bursty times: the queue must emit the
  // oracle's (time, seq) stream, hold as many events at every step, and
  // hand back the action pushed with each key: every action reports its
  // own sequence number when run. Three population profiles: a random mix
  // that grows slowly, and a sawtooth that climbs past 3,000 pending
  // events, drains to empty and climbs again, so that vacated slots are
  // reused many times over, both untagged; and a tagged sawtooth that
  // drives the delay lanes (see TaggedPushes).
  enum class Profile { kMixed, kSawtooth, kTagged };
  constexpr std::uint64_t kNotRun = std::numeric_limits<std::uint64_t>::max();
  for (const Profile profile :
       {Profile::kMixed, Profile::kSawtooth, Profile::kTagged}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
      const bool sawtooth = profile == Profile::kSawtooth;
      const bool tagged = profile == Profile::kTagged;
      SCOPED_TRACE(testing::Message()
                   << (tagged ? "tagged" : sawtooth ? "sawtooth" : "mixed")
                   << " seed " << seed);
      HeapEventQueue heap;
      std::vector<std::pair<SimTime, std::uint64_t>> oracle;
      Rng rng(seed);
      double now = 0.0;
      std::uint64_t seq = 0;
      std::uint64_t ran = kNotRun;  // what the last action run reported
      const auto pop_and_check = [&] {
        const auto expected = pop_least(oracle);
        ASSERT_EQ(heap.next_time(), expected.first);
        EventItem popped = heap.pop();
        ASSERT_EQ(popped.time, expected.first);
        ASSERT_EQ(popped.seq, expected.second);
        ran = kNotRun;
        popped.action();
        ASSERT_EQ(ran, popped.seq);
        now = popped.time;
      };
      TaggedPushes pushes(seed);
      bool climbing = true;
      int refills = 0;  // sawtooth: climbs that began from an empty heap
      std::uint64_t lane_pushes = 0;
      std::uint64_t late_lane_pushes = 0;  // after the first refill
      const int rounds = sawtooth || tagged ? 20000 : 5000;
      for (int round = 0; round < rounds; ++round) {
        bool push = false;
        if (tagged) {
          if (climbing && oracle.size() >= 96) climbing = false;
          if (!climbing && oracle.empty()) {
            climbing = true;
            ++refills;
            pushes.new_delays();
          }
          push = rng.uniform_index(10) < (climbing ? 7u : 3u);
        } else if (sawtooth) {
          if (climbing && oracle.size() >= 3000) climbing = false;
          if (!climbing && oracle.empty()) {
            climbing = true;
            ++refills;
          }
          push = rng.uniform_index(10) < (climbing ? 9u : 1u);
        } else {
          push = rng.uniform_index(3) < 2;
        }
        if (tagged && (push || heap.empty())) {
          const TaggedPush p = pushes.next(now);
          const bool gated = heap.size() < HeapEventQueue::kLaneGate;
          const std::size_t in_lanes = heap.in_lanes();
          heap.push(p.time, p.seq, [&ran, mine = p.seq] { ran = mine; },
                    p.tag);
          oracle.emplace_back(p.time, p.seq);
          if (heap.in_lanes() > in_lanes) {
            ASSERT_FALSE(gated) << "a lane took a push below the gate";
            ++lane_pushes;
            if (refills > 0) ++late_lane_pushes;
          }
        } else if (push || heap.empty()) {
          // Push: future time, occasionally far ahead, occasionally tying.
          double t = now;
          const auto style = rng.uniform_index(4);
          if (style == 0) {
            t = now;  // tie with the current time
          } else if (style == 3) {
            t = now + 1000.0 + rng.uniform01() * 1e6;
          } else {
            t = now + rng.uniform01() * 50.0;
          }
          heap.push(t, seq, [&ran, mine = seq] { ran = mine; });
          oracle.emplace_back(t, seq);
          ++seq;
          ASSERT_EQ(heap.in_lanes(), 0u);  // untagged pushes stay in the heap
        } else {
          ASSERT_NO_FATAL_FAILURE(pop_and_check());
        }
        ASSERT_EQ(heap.size(), oracle.size());
        ASSERT_EQ(heap.empty(), oracle.empty());
      }
      if (sawtooth || tagged) {
        EXPECT_GE(refills, 2);
      }
      if (tagged) {
        // Most pushes repeat a delay; lanes must carry many of them, also
        // after lanes emptied and took the next phase's delays.
        EXPECT_GT(lane_pushes, 2000u);
        EXPECT_GT(late_lane_pushes, 1000u);
      }
      while (!oracle.empty()) {
        ASSERT_NO_FATAL_FAILURE(pop_and_check());
        ASSERT_EQ(heap.size(), oracle.size());
      }
      EXPECT_TRUE(heap.empty());
    }
  }
}

TEST(SimulatorOrder, QuantizedTimesFireInStableSortOrder) {
  // 500 events on 40 time values, scheduled in random time order: ties mix
  // with out-of-order pushes, so the heap's sifts must keep each tie in
  // scheduling order. The oracle is a stable sort by time.
  Simulator sim;
  std::vector<std::pair<double, int>> scheduled;
  std::vector<std::pair<double, int>> fired;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const double t = 25.0 * static_cast<double>(rng.uniform_index(40));
    scheduled.emplace_back(t, i);
    sim.schedule_at(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  sim.run();
  std::stable_sort(
      scheduled.begin(), scheduled.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, scheduled);
}

}  // namespace
}  // namespace pds
