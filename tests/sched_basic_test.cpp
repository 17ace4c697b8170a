#include <gtest/gtest.h>

#include "sched/additive.hpp"
#include "sched/factory.hpp"
#include "sched/strict_priority.hpp"
#include "sched/tag.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

using testutil::packet;
using testutil::replay;
using testutil::ScriptedArrival;

SchedulerConfig config4() {
  SchedulerConfig c;
  c.sdp = {1.0, 2.0, 4.0, 8.0};
  c.link_capacity = 10.0;
  return c;
}

// ------------------------------------------------------------ validation

TEST(SchedulerConfig, RejectsEmptySdp) {
  SchedulerConfig c;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SchedulerConfig, RejectsDecreasingSdp) {
  SchedulerConfig c;
  c.sdp = {2.0, 1.0};
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SchedulerConfig, RejectsNonPositiveSdp) {
  SchedulerConfig c;
  c.sdp = {0.0, 1.0};
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SchedulerConfig, CapacityOnlyRequiredWhenRequested) {
  SchedulerConfig c;
  c.sdp = {1.0, 2.0};
  EXPECT_NO_THROW(c.validate(false));
  EXPECT_THROW(c.validate(true), std::invalid_argument);
}

TEST(SchedulerConfig, RejectsBadHpdG) {
  SchedulerConfig c;
  c.sdp = {1.0};
  c.hpd_g = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SchedulerConfig, RejectsNonPositiveHpdG) {
  SchedulerConfig c;
  c.sdp = {1.0};
  c.hpd_g = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.hpd_g = -0.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.hpd_g = 1e-9;  // vanishing but positive is still legal
  EXPECT_NO_THROW(c.validate());
}

TEST(SchedulerConfig, RejectsNonPositiveDrrQuantum) {
  SchedulerConfig c;
  c.sdp = {1.0};
  c.drr_quantum_bytes = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.drr_quantum_bytes = -100.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// --------------------------------------------------------------- factory

TEST(Factory, RoundTripsAllNames) {
  for (const auto kind :
       {SchedulerKind::kFcfs, SchedulerKind::kStrictPriority,
        SchedulerKind::kWtp, SchedulerKind::kBpr, SchedulerKind::kAdditiveWtp,
        SchedulerKind::kPad, SchedulerKind::kHpd, SchedulerKind::kDrr,
        SchedulerKind::kScfq, SchedulerKind::kVirtualClock}) {
    EXPECT_EQ(scheduler_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(scheduler_kind_from_string("nope"), std::invalid_argument);
}

TEST(Factory, BuildsEveryKindWithMatchingName) {
  const auto c = config4();
  for (const auto& [kind, name] :
       std::vector<std::pair<SchedulerKind, std::string_view>>{
           {SchedulerKind::kFcfs, "FCFS"},
           {SchedulerKind::kStrictPriority, "SP"},
           {SchedulerKind::kWtp, "WTP"},
           {SchedulerKind::kBpr, "BPR"},
           {SchedulerKind::kAdditiveWtp, "ADD"},
           {SchedulerKind::kPad, "PAD"},
           {SchedulerKind::kHpd, "HPD"},
           {SchedulerKind::kDrr, "DRR"},
           {SchedulerKind::kScfq, "SCFQ"},
           {SchedulerKind::kVirtualClock, "VC"}}) {
    const auto s = make_scheduler(kind, c);
    EXPECT_EQ(s->name(), name);
    EXPECT_EQ(s->num_classes(), 4u);
    EXPECT_TRUE(s->empty());
  }
}

// ------------------------------------------------------------------ FCFS

TEST(Fcfs, ServesAcrossClassesInArrivalOrder) {
  FcfsScheduler fcfs(3);
  fcfs.enqueue(packet(1, 2, 100, 0.0), 0.0);
  fcfs.enqueue(packet(2, 0, 100, 1.0), 1.0);
  fcfs.enqueue(packet(3, 1, 100, 2.0), 2.0);
  EXPECT_EQ(fcfs.dequeue(3.0)->id, 1u);
  EXPECT_EQ(fcfs.dequeue(3.0)->id, 2u);
  EXPECT_EQ(fcfs.dequeue(3.0)->id, 3u);
  EXPECT_FALSE(fcfs.dequeue(3.0).has_value());
}

TEST(Fcfs, ReportsPerClassBacklog) {
  FcfsScheduler fcfs(2);
  fcfs.enqueue(packet(1, 0, 100, 0.0), 0.0);
  fcfs.enqueue(packet(2, 1, 250, 0.0), 0.0);
  fcfs.enqueue(packet(3, 1, 50, 0.0), 0.0);
  EXPECT_EQ(fcfs.backlog_packets(0), 1u);
  EXPECT_EQ(fcfs.backlog_packets(1), 2u);
  EXPECT_EQ(fcfs.backlog_bytes(1), 300u);
  fcfs.dequeue(1.0);
  EXPECT_EQ(fcfs.backlog_packets(0), 0u);
}

TEST(Fcfs, DropTailUnsupported) {
  FcfsScheduler fcfs(2);
  fcfs.enqueue(packet(1, 0, 100, 0.0), 0.0);
  EXPECT_FALSE(fcfs.drop_tail(0).has_value());
}

TEST(Fcfs, RejectsFutureArrivalStamp) {
  FcfsScheduler fcfs(1);
  EXPECT_THROW(fcfs.enqueue(packet(1, 0, 10, 5.0), 1.0),
               std::invalid_argument);
}

// -------------------------------------------------------- strict priority

TEST(StrictPriority, AlwaysServesHighestBackloggedClass) {
  StrictPriorityScheduler sp(config4());
  sp.enqueue(packet(1, 0, 100, 0.0), 0.0);
  sp.enqueue(packet(2, 3, 100, 0.0), 0.0);
  sp.enqueue(packet(3, 1, 100, 0.0), 0.0);
  EXPECT_EQ(sp.dequeue(1.0)->cls, 3u);
  EXPECT_EQ(sp.dequeue(1.0)->cls, 1u);
  EXPECT_EQ(sp.dequeue(1.0)->cls, 0u);
}

TEST(StrictPriority, FifoWithinClass) {
  StrictPriorityScheduler sp(config4());
  sp.enqueue(packet(1, 2, 100, 0.0), 0.0);
  sp.enqueue(packet(2, 2, 100, 1.0), 1.0);
  EXPECT_EQ(sp.dequeue(2.0)->id, 1u);
  EXPECT_EQ(sp.dequeue(2.0)->id, 2u);
}

TEST(StrictPriority, LowClassStarvesUnderHighLoad) {
  // Continuous class-1 arrivals keep class-0's lone packet waiting for the
  // whole script — the starvation problem Section 2.1 attributes to strict
  // prioritization.
  StrictPriorityScheduler sp(config4());
  std::vector<ScriptedArrival> script;
  // Class-1 packets arrive back-to-back with the service rate (tx time = 10
  // at capacity 10); the class-0 victim arrives at 0.5, mid-transmission.
  script.push_back({0.5, 0, 100});
  for (int i = 0; i < 50; ++i) {
    script.push_back({i * 10.0, 1, 100});
  }
  const auto out = replay(sp, 10.0, script);
  ASSERT_EQ(out.size(), 51u);
  EXPECT_EQ(out.back().cls, 0u);  // victim leaves last
}

// ---------------------------------------------------------- additive WTP

TEST(AdditiveWtp, HeadStartWinsWhenWaitsAreEqual) {
  SchedulerConfig c;
  c.sdp = {1.0, 5.0};
  AdditiveWtpScheduler add(c);
  add.enqueue(packet(1, 0, 100, 0.0), 0.0);
  add.enqueue(packet(2, 1, 100, 0.0), 0.0);
  // Priorities: w + s = 10+1 vs 10+5.
  EXPECT_EQ(add.dequeue(10.0)->cls, 1u);
}

TEST(AdditiveWtp, SufficientExtraWaitOvercomesHeadStart) {
  SchedulerConfig c;
  c.sdp = {1.0, 5.0};
  AdditiveWtpScheduler add(c);
  add.enqueue(packet(1, 0, 100, 0.0), 0.0);
  add.enqueue(packet(2, 1, 100, 4.5), 4.5);
  // At t=10: class0 priority 10+1 = 11, class1 priority 5.5+5 = 10.5.
  EXPECT_EQ(add.dequeue(10.0)->cls, 0u);
}

TEST(AdditiveWtp, TieGoesToHigherClass) {
  SchedulerConfig c;
  c.sdp = {1.0, 5.0};
  AdditiveWtpScheduler add(c);
  add.enqueue(packet(1, 0, 100, 0.0), 0.0);
  add.enqueue(packet(2, 1, 100, 4.0), 4.0);
  // At t=10: 10+1 == 6+5.
  EXPECT_EQ(add.dequeue(10.0)->cls, 1u);
}

// --------------------------------------------------------- drop_tail base

TEST(ClassBased, DropTailRemovesNewestOfClass) {
  StrictPriorityScheduler sp(config4());
  sp.enqueue(packet(1, 1, 100, 0.0), 0.0);
  sp.enqueue(packet(2, 1, 200, 1.0), 1.0);
  const auto dropped = sp.drop_tail(1);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->id, 2u);
  EXPECT_EQ(sp.backlog_packets(1), 1u);
}

TEST(ClassBased, DropTailOnEmptyClassReturnsNullopt) {
  StrictPriorityScheduler sp(config4());
  EXPECT_FALSE(sp.drop_tail(2).has_value());
  EXPECT_THROW(sp.drop_tail(9), std::invalid_argument);
}

}  // namespace
}  // namespace pds
