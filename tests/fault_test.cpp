// Fault injection: plan parsing, link fault semantics, loss bursts, and the
// determinism-under-faults contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "sched/link.hpp"
#include "sched/tag.hpp"

namespace pds {
namespace {

Packet make_packet(std::uint64_t id, ClassId cls, std::uint32_t bytes) {
  Packet p;
  p.id = id;
  p.cls = cls;
  p.size_bytes = bytes;
  return p;
}

std::string parse_error(const std::string& text) {
  try {
    parse_fault_plan(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

// ----------------------------------------------------------------- parsing

TEST(FaultPlan, ParsesTheReferencePlan) {
  const auto plan = parse_fault_plan(
      "# a flap plus a brown-out\n"
      "seed 7\n"
      "down backbone at=1e4 for=2e3 mode=hold\n"
      "degrade * at=2e4 for=5e3 factor=0.5   # trailing comment\n"
      "stall backbone at=3e4 for=100\n"
      "loss edge at=4e4 for=1e3 rate=0.25\n");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.episodes.size(), 4u);
  EXPECT_EQ(plan.episodes[0].kind, FaultKind::kDown);
  EXPECT_EQ(plan.episodes[0].mode, OutageMode::kHoldArrivals);
  EXPECT_DOUBLE_EQ(plan.episodes[0].end(), 1.2e4);
  EXPECT_EQ(plan.episodes[1].target, "*");
  EXPECT_DOUBLE_EQ(plan.episodes[1].factor, 0.5);
  EXPECT_EQ(plan.episodes[2].kind, FaultKind::kStall);
  EXPECT_DOUBLE_EQ(plan.episodes[3].rate, 0.25);
}

TEST(FaultPlan, EmptyPlanIsLegal) {
  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_TRUE(parse_fault_plan("# comments only\n\n").empty());
  EXPECT_EQ(parse_fault_plan("").seed, 1u);
}

TEST(FaultPlan, DownModeDefaultsToDrop) {
  const auto plan = parse_fault_plan("down l at=10 for=5\n");
  EXPECT_EQ(plan.episodes[0].mode, OutageMode::kDropArrivals);
}

TEST(FaultPlan, ErrorsCarryTheLineNumber) {
  EXPECT_NE(parse_error("seed 1\nfrobnicate l at=1 for=1\n")
                .find("fault plan line 2: unknown directive frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=1 for=1\n\ndown at=2 for=1\n")
                .find("line 3: down needs a target name"),
            std::string::npos);
  EXPECT_NE(parse_error("degrade l at=1 for=1\n")
                .find("line 1: missing required option factor=..."),
            std::string::npos);
}

TEST(FaultPlan, RejectsMalformedDirectives) {
  EXPECT_NE(parse_error("down l at=soon for=1\n").find("malformed number"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=1 for=1 bogus\n")
                .find("expected key=value"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=1 for=1 mode=drop color=red\n")
                .find("unknown option color"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=1 for=1 mode=maybe\n")
                .find("mode must be drop or hold"),
            std::string::npos);
  EXPECT_NE(parse_error("seed 1\nseed 2\n").find("duplicate seed"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=-1 for=1\n").find("at must be"),
            std::string::npos);
  EXPECT_NE(parse_error("down l at=1 for=0\n").find("for must be"),
            std::string::npos);
  EXPECT_NE(parse_error("degrade l at=1 for=1 factor=1\n")
                .find("factor must be in (0, 1)"),
            std::string::npos);
  EXPECT_NE(parse_error("loss l at=1 for=1 rate=1.5\n")
                .find("rate must be in (0, 1]"),
            std::string::npos);
}

// Every value error is a parse error that names its line: non-finite
// numbers never reach the injector, and integers are never truncated.
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

TEST(FaultPlan, NanStartIsRejectedWithItsLine) {
  EXPECT_TRUE(starts_with(parse_error("down n0>n1 at=nan for=5\n"),
                          "fault plan line 1: "));
}

TEST(FaultPlan, InfiniteDurationIsRejectedWithItsLine) {
  EXPECT_TRUE(starts_with(parse_error("seed 2\nstall l at=1 for=inf\n"),
                          "fault plan line 2: "));
}

TEST(FaultPlan, SeedBeyondUint64IsRejectedWithItsLine) {
  EXPECT_EQ(parse_error("seed 1e30\n"),
            "fault plan line 1: seed must be a non-negative integer");
  EXPECT_TRUE(starts_with(parse_error("seed 2.5\n"), "fault plan line 1: "));
}

// ----------------------------------------------------- link fault semantics

struct LinkFixture {
  Simulator sim;
  FcfsScheduler sched{1};
  std::vector<double> departures;  // completion times
  Link link{sim, sched, 100.0, [this](Packet&&, SimTime, SimTime now) {
              departures.push_back(now);
            }};
};

TEST(LinkFaults, DownDropModeDiscardsArrivalsAndRecovers) {
  LinkFixture f;
  f.sim.schedule_at(10.0, [&] { f.link.take_down(OutageMode::kDropArrivals); });
  f.sim.schedule_at(15.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(20.0, [&] { f.link.bring_up(); });
  f.sim.schedule_at(25.0, [&] { f.link.arrive(make_packet(2, 0, 100)); });
  f.sim.run();
  // The outage arrival vanished; the post-recovery one transmitted normally.
  ASSERT_EQ(f.departures.size(), 1u);
  EXPECT_DOUBLE_EQ(f.departures[0], 26.0);
  EXPECT_EQ(f.link.fault_drops(), 1u);
}

TEST(LinkFaults, DownHoldModeReleasesTheBacklogOnRecovery) {
  LinkFixture f;
  f.sim.schedule_at(10.0, [&] { f.link.take_down(OutageMode::kHoldArrivals); });
  f.sim.schedule_at(12.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(13.0, [&] { f.link.arrive(make_packet(2, 0, 100)); });
  f.sim.schedule_at(20.0, [&] { f.link.bring_up(); });
  f.sim.run();
  // Both held packets drain back-to-back from the recovery instant.
  ASSERT_EQ(f.departures.size(), 2u);
  EXPECT_DOUBLE_EQ(f.departures[0], 21.0);
  EXPECT_DOUBLE_EQ(f.departures[1], 22.0);
  EXPECT_EQ(f.link.fault_drops(), 0u);
}

TEST(LinkFaults, FaultsGateFutureTransmissionsOnly) {
  // A packet already on the wire when the outage starts finishes on time.
  LinkFixture f;
  f.sim.schedule_at(0.0, [&] { f.link.arrive(make_packet(1, 0, 500)); });
  f.sim.schedule_at(1.0, [&] { f.link.take_down(OutageMode::kHoldArrivals); });
  f.sim.schedule_at(9.0, [&] { f.link.bring_up(); });
  f.sim.run();
  ASSERT_EQ(f.departures.size(), 1u);
  EXPECT_DOUBLE_EQ(f.departures[0], 5.0);  // 500 B / 100 B-per-tu
}

TEST(LinkFaults, DegradeScalesServiceOfLaterPackets) {
  LinkFixture f;
  f.sim.schedule_at(0.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(2.0, [&] { f.link.set_capacity_factor(0.5); });
  f.sim.schedule_at(3.0, [&] { f.link.arrive(make_packet(2, 0, 100)); });
  f.sim.schedule_at(10.0, [&] { f.link.set_capacity_factor(1.0); });
  f.sim.schedule_at(11.0, [&] { f.link.arrive(make_packet(3, 0, 100)); });
  f.sim.run();
  ASSERT_EQ(f.departures.size(), 3u);
  EXPECT_DOUBLE_EQ(f.departures[0], 1.0);   // full rate
  EXPECT_DOUBLE_EQ(f.departures[1], 5.0);   // 3.0 + 100/(100*0.5)
  EXPECT_DOUBLE_EQ(f.departures[2], 12.0);  // restored
}

TEST(LinkFaults, StallPausesAndResumeRestartsService) {
  LinkFixture f;
  f.sim.schedule_at(5.0, [&] { f.link.stall(); });
  f.sim.schedule_at(6.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(14.0, [&] { f.link.resume(); });
  f.sim.run();
  ASSERT_EQ(f.departures.size(), 1u);
  EXPECT_DOUBLE_EQ(f.departures[0], 15.0);
  EXPECT_EQ(f.link.fault_drops(), 0u);  // stalls never drop
}

TEST(LinkFaults, StateTransitionsAreContractChecked) {
  LinkFixture f;
  EXPECT_THROW(f.link.bring_up(), std::invalid_argument);
  EXPECT_THROW(f.link.resume(), std::invalid_argument);
  f.link.take_down(OutageMode::kDropArrivals);
  EXPECT_THROW(f.link.take_down(OutageMode::kDropArrivals),
               std::invalid_argument);
  f.link.bring_up();
  EXPECT_THROW(f.link.set_capacity_factor(0.0), std::invalid_argument);
  EXPECT_THROW(f.link.set_capacity_factor(1.5), std::invalid_argument);
}

// ------------------------------------------------------------- loss bursts

struct LossyFixture {
  Simulator sim;
  FcfsScheduler sched{1};
  std::uint64_t departed = 0;
  Link lossy{sim, sched, 100.0,
             [this](Packet&&, SimTime, SimTime) { ++departed; }};

  LossyFixture() { lossy.set_buffer(1000); }

  // Feeds `count` packets, one per 2 time units from t = 1.
  void feed(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      sim.schedule_at(1.0 + 2.0 * static_cast<double>(i), [this, i] {
        lossy.arrive(make_packet(i, 0, 100));
      });
    }
  }
};

TEST(LossBurst, DropsArrivalsAtTheGivenRateDeterministically) {
  LossyFixture a;
  a.feed(500);
  a.sim.schedule_at(0.0, [&] { a.lossy.set_burst_loss(0.5, Rng(42)); });
  a.sim.run();
  EXPECT_TRUE(a.lossy.burst_loss_active());
  EXPECT_GT(a.lossy.burst_drops(), 150u);  // ~250 expected
  EXPECT_LT(a.lossy.burst_drops(), 350u);
  EXPECT_EQ(a.departed + a.lossy.burst_drops(), 500u);
  // Burst drops are fault accounting, not drop-policy accounting.
  EXPECT_EQ(a.lossy.drops(0), 0u);

  // Same seed => identical drop pattern.
  LossyFixture b;
  b.feed(500);
  b.sim.schedule_at(0.0, [&] { b.lossy.set_burst_loss(0.5, Rng(42)); });
  b.sim.run();
  EXPECT_EQ(b.lossy.burst_drops(), a.lossy.burst_drops());
  EXPECT_EQ(b.departed, a.departed);
}

TEST(LossBurst, ClearStopsTheDrops) {
  LossyFixture f;
  f.feed(100);
  f.sim.schedule_at(0.0, [&] { f.lossy.set_burst_loss(1.0, Rng(1)); });
  f.sim.schedule_at(100.0, [&] { f.lossy.clear_burst_loss(); });
  f.sim.run();
  EXPECT_FALSE(f.lossy.burst_loss_active());
  // Arrivals at t=1,3,...,99 all dropped; the rest all delivered.
  EXPECT_EQ(f.lossy.burst_drops(), 50u);
  EXPECT_EQ(f.departed, 50u);
  EXPECT_THROW(f.lossy.set_burst_loss(0.0, Rng(1)), std::invalid_argument);
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, DrivesAScriptedFlapAgainstTheLink) {
  LinkFixture f;
  FaultInjector inj(f.sim, parse_fault_plan(
                               "down l at=10 for=10 mode=drop\n"
                               "degrade l at=30 for=10 factor=0.5\n"));
  inj.attach("l", f.link);
  inj.arm();
  EXPECT_EQ(inj.scheduled_episodes(), 2u);
  f.sim.schedule_at(15.0, [&] { f.link.arrive(make_packet(1, 0, 100)); });
  f.sim.schedule_at(35.0, [&] { f.link.arrive(make_packet(2, 0, 100)); });
  f.sim.run();
  EXPECT_EQ(f.link.fault_drops(), 1u);
  ASSERT_EQ(f.departures.size(), 1u);
  EXPECT_DOUBLE_EQ(f.departures[0], 37.0);  // degraded rate
  EXPECT_EQ(inj.episodes_begun(), 2u);
  EXPECT_EQ(inj.episodes_completed(), 2u);
  EXPECT_FALSE(inj.any_active());
  EXPECT_FALSE(f.link.down());
  EXPECT_DOUBLE_EQ(f.link.capacity_factor(), 1.0);
}

TEST(FaultInjector, StarExpandsOverEveryAttachedTarget) {
  Simulator sim;
  FcfsScheduler s1{1}, s2{1};
  Link l1{sim, s1, 100.0, [](Packet&&, SimTime, SimTime) {}};
  Link l2{sim, s2, 100.0, [](Packet&&, SimTime, SimTime) {}};
  FaultInjector inj(sim, parse_fault_plan("stall * at=5 for=2\n"));
  inj.attach("a", l1);
  inj.attach("b", l2);
  inj.arm();
  EXPECT_EQ(inj.scheduled_episodes(), 2u);
  sim.schedule_at(6.0, [&] {
    EXPECT_TRUE(l1.stalled());
    EXPECT_TRUE(l2.stalled());
  });
  sim.run();
  EXPECT_FALSE(l1.stalled());
  EXPECT_FALSE(l2.stalled());
}

TEST(FaultInjector, ValidatesTargetsAndOverlaps) {
  Simulator sim;
  FcfsScheduler sched{1};
  Link link{sim, sched, 100.0, [](Packet&&, SimTime, SimTime) {}};
  {
    FaultInjector inj(sim, parse_fault_plan("down nosuch at=1 for=1\n"));
    inj.attach("l", link);
    EXPECT_THROW(inj.arm(), std::invalid_argument);
  }
  {
    // Loss episodes need a buffered link (Link::set_buffer).
    FaultInjector inj(sim, parse_fault_plan("loss l at=1 for=1 rate=0.5\n"));
    inj.attach("l", link);
    EXPECT_THROW(inj.arm(), std::invalid_argument);
  }
  {
    // Same-kind overlap on one target is ambiguous and rejected.
    FaultInjector inj(sim, parse_fault_plan("stall l at=1 for=10\n"
                                            "stall l at=5 for=10\n"));
    inj.attach("l", link);
    EXPECT_THROW(inj.arm(), std::invalid_argument);
  }
  // Different kinds may overlap; nothing is attached twice. This injector
  // arms, so it must outlive the run that fires its episodes.
  FaultInjector inj(sim,
                    parse_fault_plan("stall l at=1 for=10\n"
                                     "degrade l at=5 for=10 factor=0.5\n"));
  inj.attach("l", link);
  EXPECT_THROW(inj.attach("l", link), std::invalid_argument);
  EXPECT_NO_THROW(inj.arm());
  EXPECT_THROW(inj.arm(), std::invalid_argument);  // armed twice
  sim.run();
  EXPECT_EQ(inj.episodes_completed(), 2u);
}

TEST(FaultInjector, OverlapErrorNamesBothPlanLines) {
  // With wildcard expansion the conflicting pair may come from distant
  // lines, so the message pins both (and the kind and target).
  Simulator sim;
  FcfsScheduler sched{1};
  Link link{sim, sched, 100.0, [](Packet&&, SimTime, SimTime) {}};
  FaultInjector inj(sim, parse_fault_plan("stall l at=1 for=10\n"
                                          "# a comment shifts the lines\n"
                                          "stall * at=5 for=10\n"));
  inj.attach("l", link);
  try {
    inj.arm();
    FAIL() << "overlap not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("overlapping stall episodes on l (lines 1 and 3)"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjector, PrefixPatternsExpandInAttachOrder) {
  Simulator sim;
  FcfsScheduler s1{1}, s2{1}, s3{1};
  Link l1{sim, s1, 100.0, [](Packet&&, SimTime, SimTime) {}};
  Link l2{sim, s2, 100.0, [](Packet&&, SimTime, SimTime) {}};
  Link l3{sim, s3, 100.0, [](Packet&&, SimTime, SimTime) {}};
  FaultInjector inj(sim, parse_fault_plan("stall pod0* at=5 for=2\n"));
  inj.attach("pod0>a", l1);
  inj.attach("pod1>b", l2);
  inj.attach("pod0>c", l3);
  inj.arm();
  EXPECT_EQ(inj.scheduled_episodes(), 2u);
  sim.schedule_at(6.0, [&] {
    EXPECT_TRUE(l1.stalled());
    EXPECT_FALSE(l2.stalled());
    EXPECT_TRUE(l3.stalled());
  });
  sim.run();
  EXPECT_EQ(inj.episodes_completed(), 2u);
}

TEST(FaultInjector, UnmatchedPatternsFailWithTheirPlanLine) {
  Simulator sim;
  FcfsScheduler sched{1};
  Link link{sim, sched, 100.0, [](Packet&&, SimTime, SimTime) {}};
  FaultInjector inj(sim, parse_fault_plan("seed 1\n"
                                          "stall rack9* at=5 for=2\n"));
  inj.attach("pod0", link);
  try {
    inj.arm();
    FAIL() << "unmatched pattern not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what())
                  .find("line 2: pattern rack9* matches no attached target"),
              std::string::npos)
        << e.what();
  }
}

// Arm-time errors name the plan line of the offending episode.
std::string arm_error(const std::string& plan_text) {
  Simulator sim;
  FcfsScheduler sched{1};
  Link link{sim, sched, 100.0, [](Packet&&, SimTime, SimTime) {}};
  FaultInjector inj(sim, parse_fault_plan(plan_text));
  inj.attach("l", link);
  try {
    inj.arm();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(FaultInjector, UnknownTargetNamesItsLine) {
  EXPECT_EQ(arm_error("seed 1\ndown nosuch at=1 for=1\n"),
            "fault plan: line 2: unknown target nosuch");
}

TEST(FaultInjector, LossOnAPlainLinkNamesItsLine) {
  EXPECT_EQ(arm_error("# plain links have no drop stage\n"
                      "loss l at=1 for=1 rate=0.5\n"),
            "fault plan: line 2: loss episode targets l, which is not a "
            "lossy link");
}

TEST(FaultInjector, StarWithNothingAttachedNamesItsLine) {
  Simulator sim;
  FaultInjector inj(sim, parse_fault_plan("\n\nstall * at=1 for=1\n"));
  try {
    inj.arm();
    FAIL() << "empty * expansion not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fault plan: line 3: episode targets *, nothing attached");
  }
}

// ------------------------------------------------------------- determinism

TEST(FaultInjector, FaultedRunsReplayByteIdentically) {
  // Same plan + same workload twice: identical departure schedules, even
  // through a drop outage and a loss burst would-be-randomness.
  const char* plan =
      "seed 9\n"
      "down l at=50 for=20 mode=drop\n"
      "degrade l at=100 for=30 factor=0.5\n";
  auto run_once = [&] {
    LinkFixture f;
    FaultInjector inj(f.sim, parse_fault_plan(plan));
    inj.attach("l", f.link);
    inj.arm();
    for (std::uint64_t i = 0; i < 100; ++i) {
      f.sim.schedule_at(1.0 + 1.7 * static_cast<double>(i), [&f, i] {
        f.link.arrive(make_packet(i, 0, 100));
      });
    }
    f.sim.run();
    auto out = f.departures;
    out.push_back(static_cast<double>(f.link.fault_drops()));
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pds
