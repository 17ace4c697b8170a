// Burst-dequeue semantics: one scheduler decision drains up to k consecutive
// head packets of the winning class. Link has one transmit path, the burst
// loop; at k=1 it must match the classic per-packet dequeue() loop exactly;
// k>1 amortizes decision and event cost while keeping per-packet waits
// measured against staggered start times.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/scenario.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

SchedulerConfig wtp_config(std::uint32_t burst = 1) {
  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  config.burst = burst;
  return config;
}

std::vector<testutil::Departure> replay_burst(
    std::uint32_t burst, const std::vector<testutil::ScriptedArrival>& in) {
  auto sched = make_scheduler(SchedulerKind::kWtp, wtp_config(burst));
  Simulator sim;
  std::vector<testutil::Departure> out;
  Link link(sim, *sched, 10.0, [&](Packet&& p, SimTime wait, SimTime now) {
    out.push_back(testutil::Departure{p.id, p.cls, wait, now});
  });
  link.set_burst(burst);
  std::uint64_t id = 0;
  for (const auto& a : in) {
    sim.schedule_at(a.time, [&link, a, id]() {
      Packet p;
      p.id = id;
      p.cls = a.cls;
      p.size_bytes = a.bytes;
      p.created = a.time;
      link.arrive(std::move(p));
    });
    ++id;
  }
  sim.run();
  return out;
}

const std::vector<testutil::ScriptedArrival> kScript = {
    {0.0, 0, 100}, {0.0, 0, 100}, {0.0, 3, 100}, {1.0, 1, 100},
    {2.0, 0, 100}, {5.0, 3, 100}, {40.0, 2, 100}, {40.0, 2, 100},
};

TEST(Burst, ConfigValidatesTheBurstRange) {
  EXPECT_NO_THROW(wtp_config(1).validate());
  EXPECT_NO_THROW(wtp_config(kMaxBurst).validate());
  EXPECT_THROW(wtp_config(0).validate(), std::invalid_argument);
  EXPECT_THROW(wtp_config(kMaxBurst + 1).validate(), std::invalid_argument);
}

TEST(Burst, LinkRejectsOutOfRangeBurst) {
  auto sched = make_scheduler(SchedulerKind::kWtp, wtp_config());
  Simulator sim;
  Link link(sim, *sched, 10.0, [](Packet&&, SimTime, SimTime) {});
  EXPECT_THROW(link.set_burst(0), std::invalid_argument);
  EXPECT_THROW(link.set_burst(kMaxBurst + 1), std::invalid_argument);
  EXPECT_NO_THROW(link.set_burst(4));
  EXPECT_EQ(link.burst(), 4u);
}

// The classic one-packet server written out without a Link or a
// simulator: whenever the transmitter is idle and a class is backlogged,
// dequeue() picks the packet, which completes size/capacity later. An
// arrival at the instant a transmission completes joins the queue before
// the next decision, as the simulator orders the pre-scheduled arrival
// event ahead of the completion.
std::vector<testutil::Departure> classic_loop(
    Scheduler& sched, double capacity,
    const std::vector<testutil::ScriptedArrival>& in) {
  std::vector<testutil::Departure> out;
  Packet on_wire;
  SimTime wire_wait = 0.0;
  SimTime free_at = 0.0;
  bool busy = false;
  const auto start = [&](SimTime now) {
    auto p = sched.dequeue(now);
    if (!p.has_value()) return;
    on_wire = *p;
    wire_wait = now - on_wire.arrival;
    free_at = now + static_cast<double>(on_wire.size_bytes) / capacity;
    busy = true;
  };
  std::size_t next = 0;
  while (next < in.size() || busy) {
    if (busy && (next == in.size() || free_at < in[next].time)) {
      out.push_back({on_wire.id, on_wire.cls, wire_wait, free_at});
      busy = false;
      start(free_at);
      continue;
    }
    const auto& a = in[next];
    sched.enqueue(testutil::packet(next, a.cls, a.bytes, a.time), a.time);
    ++next;
    if (!busy) start(a.time);
  }
  return out;
}

TEST(Burst, BurstOfOneIsIdenticalToTheClassicLoop) {
  // Link's one transmit path at k=1 against dequeue() one packet at a time,
  // for every scheduler kind.
  for (const auto kind :
       {SchedulerKind::kFcfs, SchedulerKind::kStrictPriority,
        SchedulerKind::kWtp, SchedulerKind::kBpr, SchedulerKind::kAdditiveWtp,
        SchedulerKind::kPad, SchedulerKind::kHpd, SchedulerKind::kDrr,
        SchedulerKind::kScfq, SchedulerKind::kVirtualClock}) {
    SchedulerConfig config = wtp_config();
    config.link_capacity = 10.0;
    auto linked = make_scheduler(kind, config);
    auto bare = make_scheduler(kind, config);
    const auto got = testutil::replay(*linked, 10.0, kScript);
    const auto want = classic_loop(*bare, 10.0, kScript);
    ASSERT_EQ(got.size(), want.size()) << to_string(kind);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << to_string(kind) << " " << i;
      EXPECT_EQ(got[i].wait, want[i].wait) << to_string(kind) << " " << i;
      EXPECT_EQ(got[i].completed, want[i].completed)
          << to_string(kind) << " " << i;
    }
  }
}

TEST(Burst, DrainsConsecutiveHeadPacketsWithStaggeredWaits) {
  // A blocking packet occupies the link until t=10 while four class-2
  // packets queue behind it; the burst decision at t=10 drains all four in
  // one transmission (capacity 10, 100 bytes each, done at t=50), and each
  // packet's wait is measured against its staggered start 10 + 10*i.
  std::vector<testutil::ScriptedArrival> script = {
      {0.0, 0, 100},
      {1.0, 2, 100}, {2.0, 2, 100}, {3.0, 2, 100}, {4.0, 2, 100}};
  const auto out = replay_burst(4, script);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0].completed, 10.0);  // the blocker
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i + 1].id, i + 1);
    const double start = 10.0 + 10.0 * static_cast<double>(i);
    const double arrival = 1.0 + static_cast<double>(i);
    EXPECT_DOUBLE_EQ(out[i + 1].wait, start - arrival) << i;
    EXPECT_DOUBLE_EQ(out[i + 1].completed, 50.0) << i;
  }
}

TEST(Burst, BurstStopsAtTheWinningClassBacklog) {
  // Behind a blocker, two class-3 packets and one class-0 packet queue up;
  // the burst decision at t=10 must drain exactly the two class-3 heads
  // (done at t=30), then serve class 0 (done at t=40).
  std::vector<testutil::ScriptedArrival> script = {
      {0.0, 0, 100}, {1.0, 3, 100}, {2.0, 3, 100}, {3.0, 0, 100}};
  const auto out = replay_burst(4, script);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[1].cls, 3);
  EXPECT_EQ(out[2].cls, 3);
  EXPECT_EQ(out[3].cls, 0);
  EXPECT_DOUBLE_EQ(out[1].completed, 30.0);
  EXPECT_DOUBLE_EQ(out[2].completed, 30.0);
  EXPECT_DOUBLE_EQ(out[3].completed, 40.0);
}

TEST(Burst, WorkConservationHoldsUnderBursts) {
  const auto out = replay_burst(3, kScript);
  EXPECT_EQ(out.size(), kScript.size());
  // Per-class FIFO is preserved inside and across bursts.
  SimTime last_done[4] = {-1.0, -1.0, -1.0, -1.0};
  for (const auto& d : out) {
    EXPECT_GE(d.completed, last_done[d.cls]);
    last_done[d.cls] = d.completed;
  }
}

TEST(Burst, PerPacketKindsBurstMatchesRepeatedDequeue) {
  // FCFS, SP, DRR, SCFQ and VC take one decision per packet of a burst:
  // dequeue_burst(k) must hand back the same packets in the same order as
  // k dequeue() calls. Mixed sizes and arrival times over four classes make
  // every kind interleave the classes within one burst.
  for (const auto kind :
       {SchedulerKind::kFcfs, SchedulerKind::kStrictPriority,
        SchedulerKind::kDrr, SchedulerKind::kScfq,
        SchedulerKind::kVirtualClock}) {
    SchedulerConfig config = wtp_config();
    config.drr_quantum_bytes = 100.0;
    auto a = make_scheduler(kind, config);
    auto b = make_scheduler(kind, config);
    for (std::uint64_t i = 0; i < 24; ++i) {
      const auto cls = static_cast<ClassId>((i * 7) % 4);
      const auto bytes = static_cast<std::uint32_t>(40 + (i * 53) % 300);
      const auto arrival = static_cast<double>(i / 3);
      a->enqueue(testutil::packet(i, cls, bytes, arrival), 10.0);
      b->enqueue(testutil::packet(i, cls, bytes, arrival), 10.0);
    }
    std::uint32_t remaining = 24;
    for (const std::uint32_t k : {4u, 1u, 7u, 16u}) {
      Packet out[16];
      const auto got = a->dequeue_burst(10.0, out, k);
      ASSERT_EQ(got, std::min(k, remaining)) << to_string(kind);
      remaining -= got;
      for (std::uint32_t i = 0; i < got; ++i) {
        auto p = b->dequeue(10.0);
        ASSERT_TRUE(p.has_value()) << to_string(kind);
        EXPECT_EQ(out[i].id, p->id) << to_string(kind) << " k=" << k;
      }
    }
    EXPECT_TRUE(a->empty()) << to_string(kind);
    EXPECT_TRUE(b->empty()) << to_string(kind);
  }
}

// ------------------------------------------------------------- scenario

TEST(BurstScenario, ParsesTheBurstOption) {
  const auto s = parse_scenario(
      "link a capacity=10 sched=wtp sdp=1,2 burst=4\n"
      "link b capacity=10 sched=wtp sdp=1,2\n"
      "route r a b\n"
      "source renewal r class=0 gap=5 size=100\n"
      "run until=100\n");
  ASSERT_EQ(s.links.size(), 2u);
  EXPECT_EQ(s.links[0].burst, 4u);
  EXPECT_EQ(s.links[1].burst, 1u);  // default
}

TEST(BurstScenario, RejectsOutOfRangeOrFractionalBurst) {
  const char* bad[] = {
      "link a capacity=10 sched=wtp sdp=1,2 burst=0\n",
      "link a capacity=10 sched=wtp sdp=1,2 burst=65\n",
      "link a capacity=10 sched=wtp sdp=1,2 burst=1.5\n",
  };
  for (const char* text : bad) {
    const std::string full = std::string(text) +
                             "route r a\n"
                             "source renewal r class=0 gap=5 size=100\n"
                             "run until=100\n";
    EXPECT_THROW(parse_scenario(full), std::invalid_argument) << text;
  }
}

TEST(BurstScenario, BurstRunIsDeterministicAndLossFree) {
  const char* text =
      "link a capacity=39.375 sched=wtp sdp=1,2,4,8 burst=8\n"
      "route r a\n"
      "source cbr r class=0 count=200 size=441 interval=5\n"
      "source cbr r class=3 count=200 size=441 interval=5\n"
      "run until=100000\n";
  const auto r1 = run_scenario(text);
  const auto r2 = run_scenario(text);
  EXPECT_EQ(r1.total_exits, 400u);
  ASSERT_EQ(r1.route_stats.size(), r2.route_stats.size());
  for (std::size_t i = 0; i < r1.route_stats.size(); ++i) {
    EXPECT_EQ(r1.route_stats[i].packets, r2.route_stats[i].packets);
    EXPECT_DOUBLE_EQ(r1.route_stats[i].mean_delay,
                     r2.route_stats[i].mean_delay);
  }
}

}  // namespace
}  // namespace pds
