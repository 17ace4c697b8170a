#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include "queueing/backlog.hpp"
#include "queueing/class_queue.hpp"

namespace pds {
namespace {

Packet make_packet(std::uint64_t id, ClassId cls, std::uint32_t bytes) {
  Packet p;
  p.id = id;
  p.cls = cls;
  p.size_bytes = bytes;
  return p;
}

TEST(ClassQueue, FifoOrder) {
  ClassQueue q;
  q.push(make_packet(1, 0, 100));
  q.push(make_packet(2, 0, 200));
  q.push(make_packet(3, 0, 300));
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_EQ(q.pop().id, 3u);
}

TEST(ClassQueue, PopTailRemovesNewest) {
  ClassQueue q;
  q.push(make_packet(1, 0, 100));
  q.push(make_packet(2, 0, 200));
  EXPECT_EQ(q.pop_tail().id, 2u);
  EXPECT_EQ(q.packets(), 1u);
  EXPECT_EQ(q.head().id, 1u);
}

TEST(ClassQueue, EmptyAccessViolatesInvariant) {
  ClassQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.pop_tail(), std::logic_error);
  EXPECT_THROW(q.head(), std::logic_error);
}

TEST(MultiClassBacklog, RoutesByClass) {
  MultiClassBacklog b(3);
  b.push(make_packet(1, 2, 100));
  b.push(make_packet(2, 0, 50));
  EXPECT_EQ(b.head_of(2).packets, 1u);
  EXPECT_EQ(b.head_of(0).packets, 1u);
  EXPECT_EQ(b.head_of(1).packets, 0u);
  EXPECT_EQ(b.pop(2).id, 1u);
}

TEST(MultiClassBacklog, HeadSnapshotTracksBytesAndPackets) {
  MultiClassBacklog b(1);
  EXPECT_TRUE(b.empty());
  Packet first = make_packet(1, 0, 100);
  first.arrival = 3.0;
  b.push(first);
  b.push(make_packet(2, 0, 250));
  EXPECT_EQ(b.head_of(0).packets, 2u);
  EXPECT_EQ(b.head_of(0).bytes, 350u);
  EXPECT_EQ(b.head_of(0).head_bytes, 100u);
  EXPECT_EQ(b.head_of(0).arrival, 3.0);
  b.pop(0);
  EXPECT_EQ(b.head_of(0).bytes, 250u);
  EXPECT_EQ(b.head_of(0).head_bytes, 250u);
  b.pop(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.head_of(0).packets, 0u);
  EXPECT_EQ(b.head_of(0).bytes, 0u);
}

TEST(MultiClassBacklog, AggregateAccounting) {
  MultiClassBacklog b(2);
  EXPECT_TRUE(b.empty());
  b.push(make_packet(1, 0, 100));
  b.push(make_packet(2, 1, 200));
  EXPECT_EQ(b.total_packets(), 2u);
  EXPECT_EQ(b.total_bytes(), 300u);
  b.pop(1);
  EXPECT_EQ(b.total_bytes(), 100u);
  b.pop_tail(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.total_bytes(), 0u);
}

TEST(MultiClassBacklog, HeadSnapshotMarksBackloggedClasses) {
  MultiClassBacklog b(4);
  b.push(make_packet(1, 3, 10));
  b.push(make_packet(2, 1, 10));
  const ClassHead* heads = b.heads();
  EXPECT_EQ(heads[0].packets, 0u);
  EXPECT_EQ(heads[1].packets, 1u);
  EXPECT_EQ(heads[2].packets, 0u);
  EXPECT_EQ(heads[3].packets, 1u);
  b.pop_tail(3);
  EXPECT_EQ(heads[3].packets, 0u);
}

TEST(MultiClassBacklog, RejectsOutOfRangeClass) {
  MultiClassBacklog b(2);
  EXPECT_THROW(b.push(make_packet(1, 5, 10)), std::invalid_argument);
  EXPECT_THROW(b.pop(2), std::invalid_argument);
  EXPECT_THROW(b.pop_tail(2), std::invalid_argument);
}

TEST(MultiClassBacklog, RejectsZeroClasses) {
  EXPECT_THROW(MultiClassBacklog(0), std::invalid_argument);
}

// Differential test for the ring-buffer ClassQueue against std::deque, the
// container it replaced: a randomized mix of push / pop / pop_tail with
// phases that force both index wraparound (fill-drain cycles around the
// ring) and capacity growth mid-stream. Any divergence in order, head
// identity, or packet count is a ring-index bug.
TEST(ClassQueue, MatchesDequeUnderRandomizedChurn) {
  std::mt19937 rng(20260806);
  ClassQueue q;
  std::deque<Packet> ref;
  std::uint64_t next_id = 1;

  const auto push_one = [&] {
    const auto bytes = static_cast<std::uint32_t>(rng() % 1500 + 1);
    q.push(make_packet(next_id, 0, bytes));
    ref.push_back(make_packet(next_id, 0, bytes));
    ++next_id;
  };

  for (int round = 0; round < 50; ++round) {
    // Growth phase: push far past the current capacity so the ring
    // reallocates while holding live packets at arbitrary offsets.
    const int burst = static_cast<int>(rng() % 40 + 10);
    for (int i = 0; i < burst; ++i) push_one();

    // Churn phase: interleave all three operations; drain low enough that
    // head/tail wrap the mask repeatedly across rounds.
    const int churn = static_cast<int>(rng() % 80 + 40);
    for (int i = 0; i < churn; ++i) {
      const auto op = rng() % 4;
      if (op == 0 || ref.empty()) {
        push_one();
      } else if (op == 1) {
        ASSERT_EQ(q.head().id, ref.front().id);
        const Packet got = q.pop();
        const Packet want = ref.front();
        ref.pop_front();
        ASSERT_EQ(got.id, want.id);
        ASSERT_EQ(got.size_bytes, want.size_bytes);
      } else if (op == 2) {
        const Packet got = q.pop_tail();
        const Packet want = ref.back();
        ref.pop_back();
        ASSERT_EQ(got.id, want.id);
        ASSERT_EQ(got.size_bytes, want.size_bytes);
      } else {
        ASSERT_EQ(q.packets(), ref.size());
      }
    }
  }

  // Full drain: every surviving packet must come out in deque order.
  while (!ref.empty()) {
    ASSERT_EQ(q.pop().id, ref.front().id);
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

// The ClassHead snapshot is the only copy of the per-class counts the
// schedulers read, so it gets its own differential: random push / pop /
// pop_tail / pop_burst over four classes, checked after every operation
// against per-class deques for head arrival, head size, packet and byte
// backlog.
TEST(MultiClassBacklog, HeadSnapshotMatchesDequesUnderRandomizedChurn) {
  constexpr ClassId kClasses = 4;
  std::mt19937 rng(20261017);
  MultiClassBacklog b(kClasses);
  std::deque<Packet> ref[kClasses];
  std::uint64_t next_id = 1;
  double clock = 0.0;
  Packet burst[8];

  const auto check = [&] {
    std::uint64_t total_packets = 0;
    std::uint64_t total_bytes = 0;
    for (ClassId c = 0; c < kClasses; ++c) {
      const ClassHead& h = b.head_of(c);
      std::uint64_t bytes = 0;
      for (const Packet& p : ref[c]) bytes += p.size_bytes;
      ASSERT_EQ(h.packets, ref[c].size()) << "class " << c;
      ASSERT_EQ(h.bytes, bytes) << "class " << c;
      if (!ref[c].empty()) {
        ASSERT_EQ(h.arrival, ref[c].front().arrival) << "class " << c;
        ASSERT_EQ(h.head_bytes, ref[c].front().size_bytes) << "class " << c;
      }
      total_packets += ref[c].size();
      total_bytes += bytes;
    }
    ASSERT_EQ(b.total_packets(), total_packets);
    ASSERT_EQ(b.total_bytes(), total_bytes);
  };

  for (int step = 0; step < 4000; ++step) {
    const auto cls = static_cast<ClassId>(rng() % kClasses);
    const auto op = rng() % 5;
    if (op <= 1 || ref[cls].empty()) {
      Packet p = make_packet(next_id++, cls,
                             static_cast<std::uint32_t>(rng() % 1500 + 1));
      clock += 1.0;
      p.arrival = clock;
      b.push(p);
      ref[cls].push_back(p);
    } else if (op == 2) {
      ASSERT_EQ(b.pop(cls).id, ref[cls].front().id);
      ref[cls].pop_front();
    } else if (op == 3) {
      ASSERT_EQ(b.pop_tail(cls).id, ref[cls].back().id);
      ref[cls].pop_back();
    } else {
      const auto max_k = static_cast<std::uint32_t>(rng() % 8 + 1);
      const std::uint32_t k = b.pop_burst(cls, max_k, burst);
      ASSERT_EQ(k, std::min<std::size_t>(max_k, ref[cls].size()));
      for (std::uint32_t i = 0; i < k; ++i) {
        ASSERT_EQ(burst[i].id, ref[cls].front().id);
        ref[cls].pop_front();
      }
    }
    check();
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pds
