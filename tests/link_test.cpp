// The Link transmission server: timing, accounting, work conservation.
#include <gtest/gtest.h>

#include <vector>

#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "sched/tag.hpp"
#include "sched/wtp.hpp"

namespace pds {
namespace {

Packet make_packet(std::uint64_t id, ClassId cls, std::uint32_t bytes) {
  Packet p;
  p.id = id;
  p.cls = cls;
  p.size_bytes = bytes;
  return p;
}

struct Departure {
  std::uint64_t id;
  double wait;
  double completed;
  double cum;
  std::uint32_t hops;
};

struct Fixture {
  Simulator sim;
  FcfsScheduler sched{2};
  std::vector<Departure> out;
  Link link{sim, sched, 100.0, [this](Packet&& p, SimTime w, SimTime now) {
              out.push_back(Departure{p.id, w, now, p.cum_queueing,
                                      p.hops_done});
            }};
};

TEST(Link, TransmissionTakesSizeOverCapacity) {
  Fixture f;
  f.sim.schedule_at(1.0, [&] { f.link.arrive(make_packet(1, 0, 250)); });
  f.sim.run();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_DOUBLE_EQ(f.out[0].completed, 3.5);  // 1.0 + 250/100
  EXPECT_DOUBLE_EQ(f.out[0].wait, 0.0);
}

TEST(Link, WaitExcludesOwnTransmission) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    f.link.arrive(make_packet(1, 0, 100));  // tx [0,1)
    f.link.arrive(make_packet(2, 0, 100));  // waits 1, tx [1,2)
  });
  f.sim.run();
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_DOUBLE_EQ(f.out[1].wait, 1.0);
  EXPECT_DOUBLE_EQ(f.out[1].completed, 2.0);
}

TEST(Link, UpdatesCumulativeQueueingAndHops) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    Packet p = make_packet(1, 0, 100);
    p.cum_queueing = 7.5;  // from previous hops
    p.hops_done = 2;
    f.link.arrive(std::move(p));
    f.link.arrive(make_packet(2, 0, 100));
  });
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.out[0].cum, 7.5);   // no wait added at this hop
  EXPECT_EQ(f.out[0].hops, 3u);
  EXPECT_DOUBLE_EQ(f.out[1].cum, 1.0);   // fresh packet, 1 tu wait
  EXPECT_EQ(f.out[1].hops, 1u);
}

TEST(Link, BusyFlagAndCounters) {
  Fixture f;
  EXPECT_FALSE(f.link.busy());
  f.sim.schedule_at(0.0, [&] {
    f.link.arrive(make_packet(1, 0, 300));
    EXPECT_TRUE(f.link.busy());
  });
  f.sim.run();
  EXPECT_FALSE(f.link.busy());
  EXPECT_EQ(f.link.packets_sent(), 1u);
  EXPECT_EQ(f.link.bytes_sent(), 300u);
  EXPECT_DOUBLE_EQ(f.link.busy_time(), 3.0);
}

TEST(Link, BusyTimeEqualsBytesOverCapacity) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      f.link.arrive(make_packet(i, 0, 40 + static_cast<std::uint32_t>(i)));
    }
  });
  f.sim.run();
  EXPECT_DOUBLE_EQ(
      f.link.busy_time(),
      static_cast<double>(f.link.bytes_sent()) / f.link.capacity());
}

TEST(Link, IdleGapsDoNotCountAsBusy) {
  Fixture f;
  f.sim.schedule_at(0.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(50.0, [&] { f.link.arrive(make_packet(2, 0, 100)); });
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.link.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(f.out[1].completed, 51.0);
}

TEST(Link, WorkConservingAcrossBusyPeriod) {
  // Back-to-back service: each departure is exactly one transmission time
  // after the previous one while the backlog lasts.
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    for (std::uint64_t i = 0; i < 10; ++i) {
      f.link.arrive(make_packet(i, 0, 100));
    }
  });
  f.sim.run();
  for (std::size_t i = 0; i < f.out.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.out[i].completed, static_cast<double>(i + 1));
  }
}

TEST(Link, SchedulerChoiceGovernsServiceOrder) {
  Simulator sim;
  SchedulerConfig c;
  c.sdp = {1.0, 8.0};
  WtpScheduler wtp(c);
  std::vector<std::uint64_t> order;
  Link link(sim, wtp, 100.0, [&](Packet&& p, SimTime, SimTime) {
    order.push_back(p.id);
  });
  sim.schedule_at(0.0, [&] {
    link.arrive(make_packet(1, 0, 100));  // seizes the line
    link.arrive(make_packet(2, 0, 100));
    link.arrive(make_packet(3, 1, 100));  // higher class, same wait
  });
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 3u);  // WTP promotes the class-1 packet
  EXPECT_EQ(order[2], 2u);
}

TEST(Link, ValidatesConstruction) {
  Simulator sim;
  FcfsScheduler sched(1);
  EXPECT_THROW(Link(sim, sched, 0.0, [](Packet&&, SimTime, SimTime) {}),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, sched, 10.0, Link::DepartureHandler{}),
               std::invalid_argument);
}

// The overload guard's sojourn watermark reads the scheduler's oldest head
// wait. A 100 B packet holds the link until t=10 while a class-1 packet
// queues behind it from t=0; with the packet watermark out of reach, a
// class-0 arrival at t=3 (head wait 3) is admitted and one at t=8 (head
// wait 8 >= 5) is shed on sojourn alone.
void expect_sheds_on_sojourn_alone(SchedulerKind kind) {
  SchedulerConfig config;
  config.sdp = {1.0, 2.0};
  auto sched = make_scheduler(kind, config);
  Simulator sim;
  std::vector<std::uint64_t> departed;
  Link link(sim, *sched, 10.0,
            [&](Packet&& p, SimTime, SimTime) { departed.push_back(p.id); });
  link.set_shed(ShedPolicy{1000, 5.0, 1});
  sim.schedule_at(0.0, [&] {
    link.arrive(make_packet(1, 1, 100));
    link.arrive(make_packet(2, 1, 100));
  });
  sim.schedule_at(3.0, [&] { link.arrive(make_packet(3, 0, 100)); });
  sim.schedule_at(8.0, [&] { link.arrive(make_packet(4, 0, 100)); });
  sim.run();
  EXPECT_EQ(link.shed_drops(), 1u) << to_string(kind);
  EXPECT_EQ(departed.size(), 3u) << to_string(kind);
  for (const std::uint64_t id : departed) EXPECT_NE(id, 4u) << to_string(kind);
}

TEST(Link, FcfsShedsOnSojournAlone) {
  expect_sheds_on_sojourn_alone(SchedulerKind::kFcfs);
}

TEST(Link, ScfqShedsOnSojournAlone) {
  expect_sheds_on_sojourn_alone(SchedulerKind::kScfq);
}

TEST(Link, VirtualClockShedsOnSojournAlone) {
  expect_sheds_on_sojourn_alone(SchedulerKind::kVirtualClock);
}

}  // namespace
}  // namespace pds
