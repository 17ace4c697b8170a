// Runtime control plane: plan parsing, injector validation, and the live
// reconfiguration semantics (retune, class drain/add, scheduler swap, shed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "sched/pad.hpp"
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

std::string parse_error(const std::string& text) {
  try {
    parse_control_plan(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

// ----------------------------------------------------------------- parsing

TEST(ControlPlan, ParsesTheReferencePlan) {
  const auto plan = parse_control_plan(
      "# a full reconfiguration schedule\n"
      "seed 3\n"
      "retune core at=1e4 w=1,2,4,8\n"
      "retune core at=2e4 g=0.5          # hpd blend only\n"
      "class core at=3e4 drain=3\n"
      "class core at=3.5e4 add=3\n"
      "swap * at=4e4 sched=pad\n"
      "shed core at=5e4 for=1e3 watermark=200 sojourn=50 classes=2\n");
  EXPECT_EQ(plan.seed, 3u);
  ASSERT_EQ(plan.episodes.size(), 6u);
  EXPECT_EQ(plan.episodes[0].kind, ControlKind::kRetune);
  EXPECT_EQ(plan.episodes[0].weights, (std::vector<double>{1, 2, 4, 8}));
  EXPECT_DOUBLE_EQ(plan.episodes[0].g, 0.0);
  EXPECT_DOUBLE_EQ(plan.episodes[1].g, 0.5);
  EXPECT_TRUE(plan.episodes[1].weights.empty());
  EXPECT_EQ(plan.episodes[2].kind, ControlKind::kClass);
  EXPECT_TRUE(plan.episodes[2].drain);
  EXPECT_EQ(plan.episodes[2].cls, 3u);
  EXPECT_FALSE(plan.episodes[3].drain);
  EXPECT_EQ(plan.episodes[4].kind, ControlKind::kSwap);
  EXPECT_EQ(plan.episodes[4].target, "*");
  EXPECT_EQ(plan.episodes[4].sched, SchedulerKind::kPad);
  const auto& shed = plan.episodes[5];
  EXPECT_EQ(shed.kind, ControlKind::kShed);
  EXPECT_DOUBLE_EQ(shed.end(), 5.1e4);
  EXPECT_EQ(shed.shed.watermark_packets, 200u);
  EXPECT_DOUBLE_EQ(shed.shed.sojourn, 50.0);
  EXPECT_EQ(shed.shed.classes, 2u);
  EXPECT_EQ(shed.line, 8u);
}

TEST(ControlPlan, EmptyPlanIsLegal) {
  EXPECT_TRUE(parse_control_plan("").episodes.empty());
  EXPECT_TRUE(parse_control_plan("# comments only\n\n").episodes.empty());
  EXPECT_EQ(parse_control_plan("").seed, 1u);
}

TEST(ControlPlan, ErrorsCarryTheLineNumber) {
  EXPECT_NE(parse_error("seed 1\nfrobnicate l at=1\n")
                .find("control plan line 2: unknown directive frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 w=1,2\n\nretune at=2 w=1,2\n")
                .find("line 3: retune needs a target name"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1\n")
                .find("line 1: retune needs w=... and/or g=..."),
            std::string::npos);
}

TEST(ControlPlan, RejectsMalformedDirectives) {
  EXPECT_NE(parse_error("retune l at=soon w=1,2\n").find("malformed number"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 w=1\n")
                .find("w needs at least two values"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 w=1,0\n")
                .find("w values must be positive"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 w=4,2\n")
                .find("w values must be non-decreasing"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 g=0\n").find("g must be in (0, 1]"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 g=1.5\n").find("g must be in (0, 1]"),
            std::string::npos);
  EXPECT_NE(parse_error("class l at=1\n")
                .find("class needs exactly one of drain=<idx> or add=<idx>"),
            std::string::npos);
  EXPECT_NE(parse_error("class l at=1 drain=0 add=1\n")
                .find("class needs exactly one of"),
            std::string::npos);
  EXPECT_NE(parse_error("class l at=1 drain=1.5\n")
                .find("class index must be a non-negative integer"),
            std::string::npos);
  EXPECT_NE(parse_error("swap l at=1\n")
                .find("missing required option sched=..."),
            std::string::npos);
  EXPECT_NE(parse_error("swap l at=1 sched=zippy\n")
                .find("unknown scheduler zippy"),
            std::string::npos);
  EXPECT_NE(parse_error("shed l at=1 for=0 watermark=10\n")
                .find("for must be positive"),
            std::string::npos);
  EXPECT_NE(parse_error("shed l at=1 for=5 watermark=0\n")
                .find("watermark must be >= 1"),
            std::string::npos);
  EXPECT_NE(parse_error("shed l at=1 for=5 watermark=10 classes=0\n")
                .find("classes must be a positive integer"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=1 w=1,2 color=red\n")
                .find("unknown option color"),
            std::string::npos);
  EXPECT_NE(parse_error("retune l at=-1 w=1,2\n")
                .find("at must be non-negative"),
            std::string::npos);
}

TEST(ControlPlan, SwapRejectsClasslessSchedulersAtParse) {
  // The tag schedulers cannot adopt a live backlog (their tags do not travel
  // with it); the parser rejects them so the error carries the plan line,
  // not an arm() message.
  for (const std::string sched : {"fcfs", "scfq", "vc"}) {
    EXPECT_NE(parse_error("swap l at=1 sched=" + sched + "\n")
                  .find("swap sched must be one of sp|wtp|bpr|additive|pad|"
                        "hpd|drr, got " + sched),
              std::string::npos)
        << sched;
  }
}

// Every value error is a parse error that names its line: non-finite
// numbers never reach the injector, and packet counts are never truncated.
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

TEST(ControlPlan, NanShedDurationIsRejectedWithItsLine) {
  EXPECT_TRUE(starts_with(
      parse_error("shed link at=1 for=nan watermark=10\n"),
      "control plan line 1: "));
}

TEST(ControlPlan, NanRetuneTimeIsRejectedWithItsLine) {
  EXPECT_TRUE(starts_with(parse_error("seed 1\nretune link at=nan w=1,2\n"),
                          "control plan line 2: "));
}

TEST(ControlPlan, WatermarkBeyondUint64IsRejectedWithItsLine) {
  EXPECT_TRUE(starts_with(
      parse_error("shed link at=1 for=5 watermark=1e30\n"),
      "control plan line 1: watermark must be >= 1"));
}

TEST(ControlPlan, FractionalWatermarkIsRejectedNotTruncated) {
  EXPECT_TRUE(starts_with(
      parse_error("shed link at=1 for=5 watermark=2.5\n"),
      "control plan line 1: watermark must be >= 1"));
}

// ------------------------------------------------------- injector validation

// Arms `plan_text` against one WTP link named "link" (4 classes, SDP
// {1,2,4,8}) and returns the arm() error text ("" when it armed cleanly).
std::string arm_error(const std::string& plan_text,
                      SchedulerKind kind = SchedulerKind::kWtp) {
  Simulator sim;
  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  config.link_capacity = 100.0;
  auto sched = make_scheduler(kind, config);
  Link link(sim, *sched, 100.0, [](Packet&&, SimTime, SimTime) {});
  ControlInjector inj(sim, parse_control_plan(plan_text));
  inj.attach("link", link, kind, config);
  try {
    inj.arm();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ControlInjector, RejectsUnknownTargets) {
  EXPECT_NE(arm_error("retune core at=10 w=1,2,4,8\n")
                .find("control plan: line 1: unknown target core"),
            std::string::npos);
  EXPECT_EQ(arm_error("seed 1\n\nswap zz at=10 sched=pad\n"),
            "control plan: line 3: unknown target zz");
}

TEST(ControlInjector, RejectsUnmatchedPatternsWithTheLine) {
  EXPECT_NE(arm_error("seed 1\nretune pod0* at=10 w=1,2,4,8\n")
                .find("control plan: line 2: pattern pod0* matches no "
                      "attached target"),
            std::string::npos);
}

TEST(ControlInjector, OverlapErrorNamesBothPlanLines) {
  // Instantaneous episodes conflict only when they share `at`.
  EXPECT_NE(arm_error("retune link at=10 w=1,2,4,8\n"
                      "retune link at=10 w=1,3,9,27\n")
                .find("overlapping retune episodes on link (lines 1 and 2)"),
            std::string::npos);
  EXPECT_TRUE(arm_error("retune link at=10 w=1,2,4,8\n"
                        "retune link at=11 w=1,3,9,27\n")
                  .empty());
  // Shed windows overlap as intervals.
  EXPECT_NE(arm_error("shed link at=10 for=20 watermark=5\n"
                      "# comment line\n"
                      "shed link at=25 for=20 watermark=9\n")
                .find("overlapping shed episodes on link (lines 1 and 3)"),
            std::string::npos);
  EXPECT_TRUE(arm_error("shed link at=10 for=20 watermark=5\n"
                        "shed link at=30 for=20 watermark=9\n")
                  .empty());
}

TEST(ControlInjector, ValidatesTheSchedulerTimeline) {
  // `retune g=` on a non-HPD link is rejected with the kind in force...
  EXPECT_NE(arm_error("retune link at=10 g=0.5\n")
                .find("retune g targets link, which runs wtp (not hpd)"),
            std::string::npos);
  // ...but is legal after a swap to HPD made it meaningful.
  EXPECT_TRUE(arm_error("swap link at=5 sched=hpd\n"
                        "retune link at=10 g=0.5\n")
                  .empty());
  // And a retune scheduled before the swap still sees the original kind.
  EXPECT_NE(arm_error("swap link at=20 sched=hpd\n"
                      "retune link at=10 g=0.5\n")
                .find("retune g targets link, which runs wtp (not hpd)"),
            std::string::npos);
  EXPECT_NE(arm_error("retune link at=10 w=1,2\n")
                .find("w needs 4 values (one per class), got 2"),
            std::string::npos);
  EXPECT_NE(arm_error("class link at=10 drain=4\n")
                .find("class index 4 out of range (target link has 4 "
                      "classes)"),
            std::string::npos);
  EXPECT_NE(arm_error("shed link at=10 for=5 watermark=10 classes=5\n")
                .find("shed classes=5 exceeds the 4 classes of target link"),
            std::string::npos);
  // FCFS has no weights to retune, and no tag scheduler can hand its tagged
  // backlog to a swap replacement (the kind rules in sched/factory.hpp).
  EXPECT_NE(arm_error("retune link at=10 w=1,2,4,8\n", SchedulerKind::kFcfs)
                .find("retune w targets link, which runs fcfs (no weights)"),
            std::string::npos);
  for (const auto kind :
       {SchedulerKind::kScfq, SchedulerKind::kVirtualClock}) {
    EXPECT_TRUE(arm_error("retune link at=10 w=1,2,4,8\n", kind).empty())
        << to_string(kind);
  }
  for (const auto kind : {SchedulerKind::kFcfs, SchedulerKind::kScfq,
                          SchedulerKind::kVirtualClock}) {
    EXPECT_NE(arm_error("swap link at=10 sched=wtp\n", kind)
                  .find("swap targets link, which runs " + to_string(kind) +
                        " (not class-based) at t="),
              std::string::npos)
        << to_string(kind);
  }
}

// --------------------------------------------------- live control semantics

// A WTP link under test control: 4 classes, capacity 100 B/tu, so a 100 B
// packet transmits in exactly one time unit.
struct CtrlFixture {
  Simulator sim;
  SchedulerConfig config;
  WtpScheduler sched;
  std::vector<std::pair<ClassId, double>> departures;  // (class, time)
  Link link;

  CtrlFixture()
      : config(make_config()),
        sched(config),
        link(sim, sched, 100.0, [this](Packet&& p, SimTime, SimTime now) {
          departures.push_back({p.cls, now});
        }) {}

  static SchedulerConfig make_config() {
    SchedulerConfig c;
    c.sdp = {1.0, 2.0, 4.0, 8.0};
    c.link_capacity = 100.0;
    return c;
  }
};

TEST(ControlLive, RetunePushesNewWeightsWithoutTouchingBacklogs) {
  CtrlFixture f;
  ControlInjector inj(f.sim, parse_control_plan("retune link at=5 w=1,1,1,1\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  f.sim.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      f.link.arrive(make_packet(i, static_cast<ClassId>(i % 4), 100));
    }
  });
  f.sim.run();
  EXPECT_EQ(inj.retunes_applied(), 1u);
  EXPECT_EQ(inj.episodes_completed(), 1u);
  EXPECT_EQ(f.departures.size(), 8u);
  // The backlog survived the retune: every packet still departed.
  EXPECT_EQ(f.sched.total_backlog_packets(), 0u);
}

TEST(ControlLive, DrainDropsArrivalsWhileServingOutTheRing) {
  CtrlFixture f;
  ControlInjector inj(f.sim,
                      parse_control_plan("class link at=5 drain=0\n"
                                         "class link at=20 add=0\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  // Two class-0 packets queued before the drain (10 tu each): the second is
  // still in the ring when the drain begins and serves out normally.
  f.sim.schedule_at(1.0, [&] {
    f.link.arrive(make_packet(1, 0, 1000));
    f.link.arrive(make_packet(2, 0, 1000));
  });
  // Arrival during the drain window: dropped and counted.
  f.sim.schedule_at(10.0, [&] { f.link.arrive(make_packet(3, 0, 1000)); });
  // Arrival after `class add` re-admitted the class: transmitted.
  f.sim.schedule_at(25.0, [&] { f.link.arrive(make_packet(4, 0, 1000)); });
  f.sim.run();
  EXPECT_EQ(f.departures.size(), 3u);
  EXPECT_EQ(f.link.drain_drops(), 1u);
  EXPECT_EQ(inj.class_changes_applied(), 2u);
  EXPECT_TRUE(f.link.class_admitted(0));
}

TEST(ControlLive, ShedDropsLowClassesAboveTheWatermarkOnly) {
  CtrlFixture f;
  ControlInjector inj(
      f.sim,
      parse_control_plan("shed link at=5 for=20 watermark=3 classes=2\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  // Build a backlog of 3 queued class-3 packets (10 tu each, one more in
  // flight) so the aggregate sits at the watermark when the shed is live.
  f.sim.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 4; ++i) {
      f.link.arrive(make_packet(i, 3, 1000));
    }
  });
  // At t=6 the backlog is still >= 3: classes 0 and 1 are shed, class 2 is
  // protected (classes=2 sheds only the two lowest).
  f.sim.schedule_at(6.0, [&] {
    f.link.arrive(make_packet(10, 0, 1000));
    f.link.arrive(make_packet(11, 1, 1000));
    f.link.arrive(make_packet(12, 2, 1000));
  });
  // After the window closed (t=25) nothing is shed regardless of backlog.
  f.sim.schedule_at(30.0, [&] { f.link.arrive(make_packet(13, 0, 1000)); });
  f.sim.run();
  EXPECT_EQ(f.link.shed_drops(), 2u);
  EXPECT_EQ(inj.sheds_applied(), 1u);
  EXPECT_EQ(inj.episodes_completed(), 1u);
  EXPECT_FALSE(f.link.shedding());
  // 4 class-3 + 1 class-2 + 1 post-window class-0 departed.
  EXPECT_EQ(f.departures.size(), 6u);
}

TEST(ControlLive, ShedBelowTheWatermarkAdmitsEverything) {
  CtrlFixture f;
  ControlInjector inj(
      f.sim,
      parse_control_plan("shed link at=5 for=20 watermark=50 classes=4\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  f.sim.schedule_at(6.0, [&] {
    f.link.arrive(make_packet(1, 0, 100));
    f.link.arrive(make_packet(2, 1, 100));
  });
  f.sim.run();
  EXPECT_EQ(f.link.shed_drops(), 0u);
  EXPECT_EQ(f.departures.size(), 2u);
}

TEST(ControlLive, SwapHandsTheBacklogToTheReplacement) {
  CtrlFixture f;
  ControlInjector inj(f.sim, parse_control_plan("swap link at=5 sched=pad\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  // Queue 6 packets across classes (10 tu each); the first is in flight at
  // the swap, the other five ride the backlog across the scheduler change.
  f.sim.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      f.link.arrive(make_packet(i, static_cast<ClassId>(i % 3), 1000));
    }
  });
  f.sim.run();
  EXPECT_EQ(inj.swaps_applied(), 1u);
  // No packet was lost in the handoff.
  EXPECT_EQ(f.departures.size(), 6u);
  // The link now serves through the swapped-in PAD instance.
  EXPECT_EQ(f.link.scheduler().name(), "PAD");
  EXPECT_EQ(f.link.scheduler().total_backlog_packets(), 0u);
}

TEST(ControlLive, SwapIsSafeMidBurst) {
  // With burst transmit the staged burst rides in the Link, not the
  // scheduler, so a swap while a burst is on the wire must lose nothing.
  Simulator sim;
  SchedulerConfig config = CtrlFixture::make_config();
  config.burst = 4;
  WtpScheduler sched(config);
  std::vector<std::uint64_t> departed;
  Link link(sim, sched, 100.0, [&](Packet&& p, SimTime, SimTime) {
    departed.push_back(p.id);
  });
  link.set_burst(4);
  ControlInjector inj(sim, parse_control_plan("swap link at=3 sched=hpd\n"));
  inj.attach("link", link, SchedulerKind::kWtp, config);
  inj.arm();
  // 8 same-class packets at t=1: the first transmits alone (done t=2), the
  // next decision stages a 4-packet burst over t=2..6 — the swap at t=3
  // lands strictly mid-burst, with packets staged in the Link.
  sim.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 8; ++i) link.arrive(make_packet(i, 1, 100));
  });
  sim.run();
  EXPECT_EQ(inj.swaps_applied(), 1u);
  EXPECT_EQ(departed.size(), 8u);
  EXPECT_EQ(link.scheduler().name(), "HPD");
  EXPECT_EQ(link.scheduler().total_backlog_packets(), 0u);
}

TEST(ControlLive, SwapThenRetuneUsesTheNewScheduler) {
  CtrlFixture f;
  ControlInjector inj(f.sim,
                      parse_control_plan("swap link at=5 sched=hpd\n"
                                         "retune link at=10 g=0.25\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  f.sim.run();
  EXPECT_EQ(inj.swaps_applied(), 1u);
  EXPECT_EQ(inj.retunes_applied(), 1u);
  auto* hpd = dynamic_cast<HpdScheduler*>(&f.link.scheduler_mut());
  ASSERT_NE(hpd, nullptr);
}

TEST(ControlLive, ActiveSummaryNamesOpenShedWindows) {
  CtrlFixture f;
  ControlInjector inj(
      f.sim, parse_control_plan("shed link at=5 for=10 watermark=100\n"));
  inj.attach("link", f.link, SchedulerKind::kWtp, f.config);
  inj.arm();
  std::string during, after;
  f.sim.schedule_at(7.0, [&] { during = inj.active_summary(); });
  f.sim.schedule_at(20.0, [&] { after = inj.active_summary(); });
  f.sim.run();
  EXPECT_EQ(during, "shed link");
  EXPECT_EQ(after, "");
}

TEST(ControlLive, PrefixPatternFansOutInAttachOrder) {
  Simulator sim;
  SchedulerConfig config = CtrlFixture::make_config();
  WtpScheduler s0(config), s1(config), s2(config);
  auto sink = [](Packet&&, SimTime, SimTime) {};
  Link l0(sim, s0, 100.0, sink), l1(sim, s1, 100.0, sink),
      l2(sim, s2, 100.0, sink);
  ControlInjector inj(sim,
                      parse_control_plan("retune pod0* at=5 w=1,1,1,1\n"));
  inj.attach("pod0a", l0, SchedulerKind::kWtp, config);
  inj.attach("pod0b", l1, SchedulerKind::kWtp, config);
  inj.attach("core", l2, SchedulerKind::kWtp, config);
  inj.arm();
  EXPECT_EQ(inj.scheduled_episodes(), 2u);  // pod0a + pod0b, not core
  sim.run();
  EXPECT_EQ(inj.retunes_applied(), 2u);
}

}  // namespace
}  // namespace pds
