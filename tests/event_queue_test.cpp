// The kernel's pending-event set must pop in ascending time, FIFO sequence
// within equal times. The differentials below check the binary heap against
// oracles that share no code with it: a linear scan of a plain vector for
// the least (time, seq), and a stable sort of a scripted Simulator workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

EventItem item(SimTime t, std::uint64_t seq) {
  return EventItem{t, seq, [] {}};
}

TEST(HeapEventQueue, PopsInTimeOrder) {
  HeapEventQueue q;
  q.push(item(5.0, 0));
  q.push(item(1.0, 1));
  q.push(item(3.0, 2));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(HeapEventQueue, FifoWithinEqualTimes) {
  HeapEventQueue q;
  for (std::uint64_t s = 0; s < 20; ++s) q.push(item(7.0, s));
  for (std::uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(q.pop().seq, s);
  }
}

TEST(HeapEventQueue, InterleavedPushPop) {
  HeapEventQueue q;
  q.push(item(10.0, 0));
  q.push(item(20.0, 1));
  EXPECT_DOUBLE_EQ(q.pop().time, 10.0);
  q.push(item(15.0, 2));  // between the popped head and the remainder
  q.push(item(12.0, 3));
  EXPECT_DOUBLE_EQ(q.pop().time, 12.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 15.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 20.0);
}

TEST(HeapEventQueue, SparseJumpsFarAhead) {
  HeapEventQueue q;
  q.push(item(1.0, 0));
  q.push(item(1e9, 1));
  q.push(item(2e9, 2));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 1e9);
  q.push(item(1.5e9, 3));
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
  // oracle's (time, seq) stream and hold as many items at every step.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    HeapEventQueue heap;
    std::vector<std::pair<SimTime, std::uint64_t>> oracle;
    Rng rng(seed);
    double now = 0.0;
    std::uint64_t seq = 0;
    for (int round = 0; round < 5000; ++round) {
      const auto op = rng.uniform_index(3);
      if (op < 2 || heap.empty()) {
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
        heap.push(item(t, seq));
        oracle.emplace_back(t, seq);
        ++seq;
      } else {
        const auto expected = pop_least(oracle);
        ASSERT_EQ(heap.next_time(), expected.first);
        const EventItem popped = heap.pop();
        ASSERT_EQ(popped.time, expected.first);
        ASSERT_EQ(popped.seq, expected.second);
        now = popped.time;
      }
      ASSERT_EQ(heap.size(), oracle.size()) << "seed " << seed;
      ASSERT_EQ(heap.empty(), oracle.empty()) << "seed " << seed;
    }
    while (!oracle.empty()) {
      const auto expected = pop_least(oracle);
      const EventItem popped = heap.pop();
      ASSERT_EQ(popped.time, expected.first);
      ASSERT_EQ(popped.seq, expected.second);
      ASSERT_EQ(heap.size(), oracle.size());
    }
    EXPECT_TRUE(heap.empty());
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
