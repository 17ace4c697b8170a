// The kernel's pending-event set must pop in ascending time, FIFO sequence
// within equal times, and hand back the action pushed with each key. The
// differentials below check the binary heap against oracles that share no
// code with it: a linear scan of a plain vector for the least (time, seq),
// and a stable sort of a scripted Simulator workload.
#include <gtest/gtest.h>

#include <algorithm>
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

// The oracle: pending (time, seq) pairs in a plain vector, popped by a
// linear scan for the least pair.
std::pair<SimTime, std::uint64_t> pop_least(
    std::vector<std::pair<SimTime, std::uint64_t>>& pending) {
  const auto it = std::min_element(pending.begin(), pending.end());
  const auto least = *it;
  pending.erase(it);
  return least;
}

TEST(EventQueueDifferential, RandomWorkloadsAgreeExactly) {
  // Mixed pushes and pops with bursty times: the heap must emit the
  // oracle's (time, seq) stream, hold as many events at every step, and
  // hand back the action pushed with each key: every action reports its
  // own sequence number when run. Two population profiles: a random mix
  // that grows slowly, and a sawtooth that climbs past 3,000 pending
  // events, drains to empty and climbs again, so that vacated slots are
  // reused many times over.
  constexpr std::uint64_t kNotRun = std::numeric_limits<std::uint64_t>::max();
  for (const bool sawtooth : {false, true}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
      SCOPED_TRACE(testing::Message() << (sawtooth ? "sawtooth" : "mixed")
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
      bool climbing = true;
      int refills = 0;  // sawtooth: climbs that began from an empty heap
      const int rounds = sawtooth ? 20000 : 5000;
      for (int round = 0; round < rounds; ++round) {
        bool push = false;
        if (sawtooth) {
          if (climbing && oracle.size() >= 3000) climbing = false;
          if (!climbing && oracle.empty()) {
            climbing = true;
            ++refills;
          }
          push = rng.uniform_index(10) < (climbing ? 9u : 1u);
        } else {
          push = rng.uniform_index(3) < 2;
        }
        if (push || heap.empty()) {
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
        } else {
          ASSERT_NO_FATAL_FAILURE(pop_and_check());
        }
        ASSERT_EQ(heap.size(), oracle.size());
        ASSERT_EQ(heap.empty(), oracle.empty());
      }
      if (sawtooth) {
        EXPECT_GE(refills, 2);
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
