#include <gtest/gtest.h>

#include <memory>

#include "dropper/plr_dropper.hpp"
#include "rng/distributions.hpp"
#include "sched/link.hpp"
#include "sched/wtp.hpp"
#include "traffic/source.hpp"

namespace pds {
namespace {

// ---------------------------------------------------------- LossHistory

TEST(LossHistory, InfiniteWindowCountsForever) {
  LossHistory h(2, 0);
  for (int i = 0; i < 10; ++i) h.note_arrival(0);
  h.note_drop(0);
  EXPECT_EQ(h.arrivals(0), 10u);
  EXPECT_EQ(h.drops(0), 1u);
  EXPECT_DOUBLE_EQ(h.loss_rate(0), 0.1);
  EXPECT_DOUBLE_EQ(h.loss_rate(1), 0.0);
}

TEST(LossHistory, SlidingWindowEvictsOldArrivals) {
  LossHistory h(2, 4);
  for (int i = 0; i < 10; ++i) h.note_arrival(0);
  EXPECT_EQ(h.arrivals(0), 4u);  // only the window is counted
  h.note_arrival(1);
  EXPECT_EQ(h.arrivals(0), 3u);
  EXPECT_EQ(h.arrivals(1), 1u);
}

TEST(LossHistory, WindowDropsAgeOutWithTheirArrivals) {
  LossHistory h(1, 3);
  h.note_arrival(0);
  h.note_drop(0);  // marks the newest arrival as dropped
  EXPECT_DOUBLE_EQ(h.loss_rate(0), 1.0);
  h.note_arrival(0);
  h.note_arrival(0);
  h.note_arrival(0);  // evicts the dropped event
  EXPECT_EQ(h.drops(0), 0u);
  EXPECT_DOUBLE_EQ(h.loss_rate(0), 0.0);
}

// ----------------------------------------------------------- PlrDropper

TEST(PlrDropper, RejectsBadLdps) {
  EXPECT_THROW(PlrDropper({}, 0), std::invalid_argument);
  EXPECT_THROW(PlrDropper({1.0, 2.0}, 0), std::invalid_argument);  // rising
  EXPECT_THROW(PlrDropper({1.0, 0.0}, 0), std::invalid_argument);
}

TEST(PlrDropper, PicksClassFurthestBelowItsLossTarget) {
  PlrDropper plr({2.0, 1.0}, 0);
  // 10 arrivals each; class 0 already lost 2, class 1 lost 0.
  for (int i = 0; i < 10; ++i) {
    plr.note_arrival(0);
    plr.note_arrival(1);
  }
  // Normalized: class0 = 0.2/2 = 0.1 after two drops, class1 = 0.
  const auto v1 = plr.pick_victim({true, true});
  EXPECT_EQ(*v1, 0u);  // both at 0 -> tie -> lower class
  const auto v2 = plr.pick_victim({true, true});
  // class0 now at 0.1/2 = 0.05, class1 still 0 -> class1.
  EXPECT_EQ(*v2, 1u);
}

TEST(PlrDropper, OnlyBackloggedClassesAreCandidates) {
  PlrDropper plr({2.0, 1.0}, 0);
  plr.note_arrival(0);
  plr.note_arrival(1);
  EXPECT_EQ(*plr.pick_victim({false, true}), 1u);
  EXPECT_FALSE(plr.pick_victim({false, false}).has_value());
}

TEST(PlrDropper, SteadyStateRatiosFollowLdps) {
  // Force drops on every third arrival with both classes always backlogged;
  // the per-class loss rates must converge to the 2:1 LDP ratio.
  PlrDropper plr({2.0, 1.0}, 0);
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    plr.note_arrival(static_cast<ClassId>(rng.uniform_index(2)));
    if (i % 3 == 0) plr.pick_victim({true, true});
  }
  const double r0 = plr.history().loss_rate(0);
  const double r1 = plr.history().loss_rate(1);
  EXPECT_NEAR(r0 / r1, 2.0, 0.1);
}

// ------------------------------------------------- buffered (lossy) Link

struct LossyFixture {
  Simulator sim;
  PacketIdAllocator ids;
  WtpScheduler sched;
  std::uint64_t departed = 0;
  Link link;

  LossyFixture(std::uint64_t buffer, DropPolicy policy,
               std::unique_ptr<PlrDropper> plr, double capacity = 100.0)
      : sched(make_config()),
        link(sim, sched, capacity,
             [this](Packet&&, SimTime, SimTime) { ++departed; }) {
    link.set_buffer(buffer, policy, std::move(plr));
  }

  std::uint64_t dropped() const { return link.drops(0) + link.drops(1); }

  static SchedulerConfig make_config() {
    SchedulerConfig c;
    c.sdp = {1.0, 2.0};
    return c;
  }

  Packet make_packet(ClassId cls, std::uint32_t bytes = 100) {
    Packet p;
    p.id = ids.next();
    p.cls = cls;
    p.size_bytes = bytes;
    p.created = sim.now();
    return p;
  }
};

TEST(LossyLink, AdmitsUntilBufferFull) {
  LossyFixture f(2, DropPolicy::kDropIncoming, nullptr);
  // First arrival goes straight into service; two more fill the buffer.
  f.link.arrive(f.make_packet(0));
  f.link.arrive(f.make_packet(0));
  f.link.arrive(f.make_packet(0));
  EXPECT_EQ(f.dropped(), 0u);
  f.link.arrive(f.make_packet(0));  // buffer (2 queued) is full
  EXPECT_EQ(f.dropped(), 1u);
  EXPECT_EQ(f.link.drops(0), 1u);
  f.sim.run();
  EXPECT_EQ(f.departed, 3u);
}

TEST(LossyLink, DropIncomingChargesTheArrivingClass) {
  LossyFixture f(1, DropPolicy::kDropIncoming, nullptr);
  f.link.arrive(f.make_packet(0));
  f.link.arrive(f.make_packet(0));
  f.link.arrive(f.make_packet(1));  // arrives to a full buffer
  EXPECT_EQ(f.link.drops(1), 1u);
  EXPECT_EQ(f.link.drops(0), 0u);
  EXPECT_DOUBLE_EQ(f.link.loss_rate(1), 1.0);
}

TEST(LossyLink, PlrPushesOutTheVictimTailAndAdmitsArrival) {
  auto plr = std::make_unique<PlrDropper>(std::vector<double>{2.0, 1.0}, 0);
  LossyFixture f(2, DropPolicy::kPlr, std::move(plr));
  f.link.arrive(f.make_packet(1));      // in service
  f.link.arrive(f.make_packet(0));      // queued
  f.link.arrive(f.make_packet(0));      // queued, buffer now full
  f.link.arrive(f.make_packet(1));      // overflow: victim = class 0 (tie)
  EXPECT_EQ(f.dropped(), 1u);
  EXPECT_EQ(f.link.drops(0), 1u);
  EXPECT_EQ(f.sched.backlog_packets(1), 1u);  // the arrival was admitted
  EXPECT_EQ(f.sched.backlog_packets(0), 1u);
  f.sim.run();
  EXPECT_EQ(f.departed, 3u);
}

TEST(LossyLink, PlrCanDropTheArrivalItself) {
  auto plr = std::make_unique<PlrDropper>(std::vector<double>{2.0, 1.0}, 0);
  LossyFixture f(1, DropPolicy::kPlr, std::move(plr));
  f.link.arrive(f.make_packet(1));  // in service
  f.link.arrive(f.make_packet(1));  // queued (buffer full)
  f.link.arrive(f.make_packet(0));  // overflow
  // Victim choice: both classes at loss rate 0 -> tie -> lower class (0);
  // class 0 has nothing queued, so the arrival itself is the victim.
  EXPECT_EQ(f.dropped(), 1u);
  EXPECT_EQ(f.link.drops(0), 1u);
  EXPECT_EQ(f.sched.backlog_packets(1), 1u);
}

TEST(LossyLink, ValidatesConstruction) {
  Simulator sim;
  SchedulerConfig c;
  c.sdp = {1.0, 2.0};
  WtpScheduler sched(c);
  Link link(sim, sched, 10.0, [](Packet&&, SimTime, SimTime) {});
  EXPECT_FALSE(link.has_buffer());
  EXPECT_THROW(link.set_burst_loss(0.5, Rng(1)), std::invalid_argument);
  EXPECT_THROW(link.set_buffer(0), std::invalid_argument);
  EXPECT_THROW(link.set_buffer(5, DropPolicy::kPlr), std::invalid_argument);
  EXPECT_THROW(link.set_buffer(5, DropPolicy::kPlr,
                               std::make_unique<PlrDropper>(
                                   std::vector<double>{1.0}, 0)),
               std::invalid_argument);
  EXPECT_THROW(link.set_buffer(5, DropPolicy::kDropIncoming,
                               std::make_unique<PlrDropper>(
                                   std::vector<double>{2.0, 1.0}, 0)),
               std::invalid_argument);
  EXPECT_FALSE(link.has_buffer());
  link.set_buffer(5);
  EXPECT_TRUE(link.has_buffer());
  EXPECT_THROW(link.set_buffer(5), std::invalid_argument);
  Packet out_of_range;
  out_of_range.cls = 2;
  EXPECT_THROW(link.arrive(out_of_range), std::invalid_argument);

  WtpScheduler late_sched(c);
  Link late(sim, late_sched, 10.0, [](Packet&&, SimTime, SimTime) {});
  late.arrive(Packet{});
  EXPECT_THROW(late.set_buffer(5), std::invalid_argument);
}

TEST(LossyLink, SustainedOverloadYieldsProportionalLossRates) {
  // 2x overload, equal class loads, LDPs 2:1: loss rates must settle near
  // the 2:1 ratio while all excess traffic is shed.
  auto plr = std::make_unique<PlrDropper>(std::vector<double>{2.0, 1.0}, 0);
  LossyFixture f(64, DropPolicy::kPlr, std::move(plr), /*capacity=*/100.0);
  Rng rng(11);
  const ExponentialDist gap(0.5);  // 2 pkts/tu * 100 B = 200 B/tu vs R=100
  double t = 0.0;
  for (int i = 0; i < 60000; ++i) {
    t += gap.sample(rng);
    const auto cls = static_cast<ClassId>(rng.uniform_index(2));
    f.sim.run_until(t);
    f.link.arrive(f.make_packet(cls));
  }
  f.sim.run();
  const double r0 = f.link.loss_rate(0);
  const double r1 = f.link.loss_rate(1);
  EXPECT_GT(r1, 0.05);
  EXPECT_NEAR(r0 / r1, 2.0, 0.25);
  EXPECT_EQ(f.departed + f.dropped(), 60000u);
}

}  // namespace
}  // namespace pds
