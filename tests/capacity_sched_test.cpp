#include <gtest/gtest.h>

#include "sched/drr.hpp"
#include "sched/tag.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

using testutil::packet;
using testutil::replay;
using testutil::ScriptedArrival;

SchedulerConfig weighted_config(std::vector<double> sdp) {
  SchedulerConfig c;
  c.sdp = std::move(sdp);
  c.drr_quantum_bytes = 100.0;
  return c;
}

// --------------------------------------------------------------------- DRR

TEST(Drr, ServesByQuantumShares) {
  // Weights 1:3, quantum base 100 B, all packets 100 B. In a saturated
  // period class 1 must send ~3 packets per class-0 packet.
  DrrScheduler drr(weighted_config({1.0, 3.0}));
  for (int i = 0; i < 40; ++i) {
    drr.enqueue(packet(static_cast<std::uint64_t>(2 * i), 0, 100, 0.0), 0.0);
    drr.enqueue(packet(static_cast<std::uint64_t>(2 * i + 1), 1, 100, 0.0),
                0.0);
  }
  int served0 = 0, served1 = 0;
  for (int i = 0; i < 20; ++i) {
    const auto p = drr.dequeue(0.0);
    ASSERT_TRUE(p.has_value());
    (p->cls == 0 ? served0 : served1)++;
  }
  EXPECT_NEAR(static_cast<double>(served1) / served0, 3.0, 0.35);
}

TEST(Drr, AccumulatesDeficitForOversizedPackets) {
  // Quantum 100 B but a 250 B packet: class needs three ring visits before
  // it can send; meanwhile the other class proceeds.
  DrrScheduler drr(weighted_config({1.0, 1.0}));
  drr.enqueue(packet(1, 0, 250, 0.0), 0.0);
  drr.enqueue(packet(2, 1, 100, 0.0), 0.0);
  drr.enqueue(packet(3, 1, 100, 0.0), 0.0);
  drr.enqueue(packet(4, 1, 100, 0.0), 0.0);
  std::vector<std::uint64_t> order;
  while (const auto p = drr.dequeue(0.0)) order.push_back(p->id);
  ASSERT_EQ(order.size(), 4u);
  // Class 0 entered the ring first but cannot send until its deficit
  // reaches 250 (three visits); class 1 sends at least twice before that.
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_TRUE(order[2] == 1u || order[3] == 1u);
}

TEST(Drr, EmptiedClassLeavesRingAndReentersFresh) {
  DrrScheduler drr(weighted_config({1.0, 1.0}));
  drr.enqueue(packet(1, 0, 100, 0.0), 0.0);
  EXPECT_EQ(drr.dequeue(0.0)->id, 1u);
  EXPECT_TRUE(drr.empty());
  EXPECT_DOUBLE_EQ(drr.deficit(0), 0.0);
  drr.enqueue(packet(2, 0, 100, 1.0), 1.0);
  EXPECT_EQ(drr.dequeue(1.0)->id, 2u);
}

TEST(Drr, DropTailKeepsRingConsistent) {
  DrrScheduler drr(weighted_config({1.0, 1.0}));
  drr.enqueue(packet(1, 0, 100, 0.0), 0.0);
  drr.enqueue(packet(2, 1, 100, 0.0), 0.0);
  const auto dropped = drr.drop_tail(0);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->id, 1u);
  // Class 0 is gone from the ring; dequeue must not trip over it.
  EXPECT_EQ(drr.dequeue(0.0)->id, 2u);
  EXPECT_TRUE(drr.empty());
}

TEST(Drr, DrainsMixedTrafficThroughLink) {
  DrrScheduler drr(weighted_config({1.0, 2.0}));
  const auto out = replay(drr, 10.0,
                          {{0.0, 0, 550}, {0.5, 1, 40}, {1.0, 0, 1500},
                           {2.0, 1, 550}, {3.0, 1, 100}});
  EXPECT_EQ(out.size(), 5u);
}

// -------------------------------------------------------------------- SCFQ

TEST(Scfq, FinishTagsFollowWeightedLengths) {
  ScfqScheduler scfq(weighted_config({1.0, 4.0}));
  scfq.enqueue(packet(1, 0, 100, 0.0), 0.0);  // F = 0 + 100/1 = 100
  scfq.enqueue(packet(2, 1, 100, 0.0), 0.0);  // F = 0 + 100/4 = 25
  EXPECT_EQ(scfq.dequeue(0.0)->id, 2u);
  EXPECT_DOUBLE_EQ(scfq.virtual_time(), 25.0);
  EXPECT_EQ(scfq.dequeue(0.0)->id, 1u);
}

TEST(Scfq, LaterArrivalInheritsVirtualTime) {
  ScfqScheduler scfq(weighted_config({1.0, 1.0}));
  scfq.enqueue(packet(1, 0, 100, 0.0), 0.0);   // F = 100
  EXPECT_EQ(scfq.dequeue(0.0)->id, 1u);        // v = 100
  scfq.enqueue(packet(2, 1, 100, 1.0), 1.0);   // F = max(100, 0)+100 = 200
  scfq.enqueue(packet(3, 0, 50, 1.0), 1.0);    // F = max(100,100)+50 = 150
  EXPECT_EQ(scfq.dequeue(1.0)->id, 3u);
  EXPECT_EQ(scfq.dequeue(1.0)->id, 2u);
}

TEST(Scfq, BandwidthSharesConvergeToWeights) {
  // Saturated two-class traffic with weights 1:3 and equal packet sizes:
  // byte shares over a long busy period approach 1:3.
  ScfqScheduler scfq(weighted_config({1.0, 3.0}));
  for (int i = 0; i < 200; ++i) {
    scfq.enqueue(packet(static_cast<std::uint64_t>(2 * i), 0, 100, 0.0), 0.0);
    scfq.enqueue(packet(static_cast<std::uint64_t>(2 * i) + 1, 1, 100, 0.0),
                 0.0);
  }
  int served0 = 0, served1 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto p = scfq.dequeue(0.0);
    ASSERT_TRUE(p.has_value());
    (p->cls == 0 ? served0 : served1)++;
  }
  EXPECT_NEAR(static_cast<double>(served1) / served0, 3.0, 0.3);
}

TEST(Scfq, VirtualTimeResetsWhenIdle) {
  ScfqScheduler scfq(weighted_config({1.0, 1.0}));
  scfq.enqueue(packet(1, 0, 100, 0.0), 0.0);
  scfq.dequeue(0.0);
  EXPECT_DOUBLE_EQ(scfq.virtual_time(), 0.0);  // idle reset
  // A new busy period starts from scratch: the first tag is 0 + L/w again.
  scfq.enqueue(packet(2, 1, 100, 5.0), 5.0);
  scfq.enqueue(packet(3, 0, 300, 5.0), 5.0);
  EXPECT_EQ(scfq.dequeue(5.0)->id, 2u);       // tag 100 beats tag 300
  EXPECT_DOUBLE_EQ(scfq.virtual_time(), 100.0);
}

TEST(Scfq, TieGoesToHigherClass) {
  ScfqScheduler scfq(weighted_config({1.0, 2.0}));
  scfq.enqueue(packet(1, 0, 100, 0.0), 0.0);  // F = 100
  scfq.enqueue(packet(2, 1, 200, 0.0), 0.0);  // F = 100
  EXPECT_EQ(scfq.dequeue(0.0)->cls, 1u);
}

TEST(Scfq, DropTailUnsupported) {
  ScfqScheduler scfq(weighted_config({1.0, 1.0}));
  scfq.enqueue(packet(1, 0, 100, 0.0), 0.0);
  EXPECT_FALSE(scfq.drop_tail(0).has_value());
}

// ------------------------------------------------------------ VirtualClock

TEST(VirtualClock, TagAdvancesByWeightedLength) {
  VirtualClockScheduler vc(weighted_config({1.0, 4.0}));
  vc.enqueue(packet(1, 0, 100, 0.0), 0.0);   // VC_0 = 0 + 100/1 = 100
  vc.enqueue(packet(2, 1, 100, 0.0), 0.0);   // VC_1 = 0 + 100/4 = 25
  EXPECT_DOUBLE_EQ(vc.clock(0), 100.0);
  EXPECT_DOUBLE_EQ(vc.clock(1), 25.0);
  EXPECT_EQ(vc.dequeue(0.0)->id, 2u);
  EXPECT_EQ(vc.dequeue(0.0)->id, 1u);
}

TEST(VirtualClock, IdleClassDoesNotBankCredit) {
  VirtualClockScheduler vc(weighted_config({1.0, 1.0}));
  // Class 0 idles until t = 500; its clock restarts from `now`, not from
  // zero, so it gets no retroactive advantage.
  vc.enqueue(packet(1, 0, 100, 500.0), 500.0);
  EXPECT_DOUBLE_EQ(vc.clock(0), 600.0);
}

TEST(VirtualClock, BurstyClassIsPunishedLater) {
  VirtualClockScheduler vc(weighted_config({1.0, 1.0}));
  // Class 0 bursts 5 packets at t=0: its clock runs to 500 while real time
  // stands still. A class-1 packet arriving at t=0 tags at 100 and beats
  // all but the first class-0 packet... in fact beats all queued class-0
  // packets with larger tags.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    vc.enqueue(packet(i, 0, 100, 0.0), 0.0);
  }
  EXPECT_DOUBLE_EQ(vc.clock(0), 500.0);
  vc.enqueue(packet(9, 1, 100, 0.0), 0.0);   // tag 100
  EXPECT_EQ(vc.dequeue(0.0)->id, 9u);        // tie at 100 -> higher class
  EXPECT_EQ(vc.dequeue(0.0)->id, 1u);        // class-0 head, tag 100
  // The rest of the burst carries tags 200..500; each fresh class-1
  // arrival tags at its own pace and keeps overtaking it.
  vc.enqueue(packet(10, 1, 100, 0.0), 0.0);  // VC_1 = 100 + 100 = 200
  EXPECT_EQ(vc.dequeue(0.0)->id, 10u);       // tie at 200 -> higher class
}

TEST(VirtualClock, SaturatedSharesFollowWeights) {
  VirtualClockScheduler vc(weighted_config({1.0, 3.0}));
  for (int i = 0; i < 200; ++i) {
    vc.enqueue(packet(static_cast<std::uint64_t>(2 * i), 0, 100, 0.0), 0.0);
    vc.enqueue(packet(static_cast<std::uint64_t>(2 * i) + 1, 1, 100, 0.0),
               0.0);
  }
  int served0 = 0, served1 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto p = vc.dequeue(0.0);
    ASSERT_TRUE(p.has_value());
    (p->cls == 0 ? served0 : served1)++;
  }
  EXPECT_NEAR(static_cast<double>(served1) / served0, 3.0, 0.3);
}

TEST(VirtualClock, DropTailUnsupported) {
  VirtualClockScheduler vc(weighted_config({1.0, 1.0}));
  vc.enqueue(packet(1, 0, 100, 0.0), 0.0);
  EXPECT_FALSE(vc.drop_tail(0).has_value());
}

}  // namespace
}  // namespace pds
