// Invariant sweep for the finite-buffer lossy link across drop policies,
// schedulers and buffer sizes:
//   1. Flow conservation: arrivals == departures + drops + final backlog.
//   2. The buffer bound is never exceeded.
//   3. Monotonicity: loss does not decrease when the offered load grows.
//   4. A generously buffered, underloaded link drops nothing.
#include <gtest/gtest.h>

#include <memory>

#include "rng/distributions.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"

namespace pds {
namespace {

struct Case {
  SchedulerKind kind;
  DropPolicy policy;
  std::uint64_t buffer;
  double offered;  // relative to capacity
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  return to_string(c.kind) + "_" +
         (c.policy == DropPolicy::kPlr ? "plr" : "tail") + "_b" +
         std::to_string(c.buffer) + "_o" +
         std::to_string(static_cast<int>(c.offered * 100));
}

struct RunOutcome {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t drops = 0;
  std::uint64_t final_backlog = 0;  // queued + the packet in transmission
  std::uint64_t max_backlog = 0;
};

RunOutcome drive(const Case& c, std::uint64_t seed) {
  Simulator sim;
  SchedulerConfig sc;
  sc.sdp = {1.0, 2.0, 4.0, 8.0};
  sc.link_capacity = 100.0;
  auto sched = make_scheduler(c.kind, sc);

  std::unique_ptr<PlrDropper> plr;
  if (c.policy == DropPolicy::kPlr) {
    plr = std::make_unique<PlrDropper>(
        std::vector<double>{8.0, 4.0, 2.0, 1.0}, 0);
  }

  RunOutcome out;
  Link link(sim, *sched, 100.0,
            [&](Packet&&, SimTime, SimTime) { ++out.departures; });
  link.set_buffer(c.buffer, c.policy, std::move(plr));

  Rng rng(seed);
  const ExponentialDist gap(1.0 / c.offered);  // 100 B pkts at 100 B/tu
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += gap.sample(rng);
    sim.run_until(t);
    Packet p;
    p.id = static_cast<std::uint64_t>(i);
    p.cls = static_cast<ClassId>(rng.uniform_index(4));
    p.size_bytes = 100;
    p.created = t;
    link.arrive(std::move(p));
    ++out.arrivals;
    std::uint64_t backlog = 0;
    for (ClassId cls = 0; cls < 4; ++cls) {
      backlog += sched->backlog_packets(cls);
    }
    out.max_backlog = std::max(out.max_backlog, backlog);
  }
  // Snapshot the backlog before draining; a packet mid-transmission has
  // been dequeued but not yet delivered, so it counts as backlog here.
  std::uint64_t backlog = link.busy() ? 1 : 0;
  for (ClassId cls = 0; cls < 4; ++cls) {
    backlog += sched->backlog_packets(cls);
    out.drops += link.drops(cls);
  }
  out.final_backlog = backlog;
  return out;
}

class LossyInvariants : public testing::TestWithParam<Case> {};

TEST_P(LossyInvariants, ConservesPacketsAndRespectsBuffer) {
  const auto out = drive(GetParam(), 11);
  EXPECT_EQ(out.arrivals,
            out.departures + out.drops + out.final_backlog);
  EXPECT_LE(out.max_backlog, GetParam().buffer);
  if (GetParam().offered > 1.1) {
    EXPECT_GT(out.drops, 0u) << "sustained overload must shed";
  }
}

TEST_P(LossyInvariants, LossMonotoneInOfferedLoad) {
  auto base = GetParam();
  auto heavier = base;
  heavier.offered = base.offered + 0.4;
  const auto lo = drive(base, 13);
  const auto hi = drive(heavier, 13);
  const double lo_rate =
      static_cast<double>(lo.drops) / static_cast<double>(lo.arrivals);
  const double hi_rate =
      static_cast<double>(hi.drops) / static_cast<double>(hi.arrivals);
  EXPECT_GE(hi_rate + 0.02, lo_rate);  // small slack for randomness
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LossyInvariants,
    testing::ValuesIn(std::vector<Case>{
        {SchedulerKind::kWtp, DropPolicy::kPlr, 16, 1.3},
        {SchedulerKind::kWtp, DropPolicy::kPlr, 128, 1.3},
        {SchedulerKind::kWtp, DropPolicy::kDropIncoming, 16, 1.3},
        {SchedulerKind::kWtp, DropPolicy::kDropIncoming, 128, 0.8},
        {SchedulerKind::kBpr, DropPolicy::kPlr, 64, 1.2},
        {SchedulerKind::kStrictPriority, DropPolicy::kPlr, 32, 1.5},
        {SchedulerKind::kAdditiveWtp, DropPolicy::kDropIncoming, 32, 1.2},
        {SchedulerKind::kPad, DropPolicy::kPlr, 64, 1.4},
        {SchedulerKind::kHpd, DropPolicy::kPlr, 64, 1.4},
        {SchedulerKind::kDrr, DropPolicy::kPlr, 64, 1.3},
    }),
    case_name);

TEST(LossyInvariants, UnderloadedGenerousBufferDropsNothing) {
  const Case c{SchedulerKind::kWtp, DropPolicy::kPlr, 5000, 0.6};
  const auto out = drive(c, 17);
  EXPECT_EQ(out.drops, 0u);
  EXPECT_EQ(out.arrivals,
            out.departures + out.final_backlog);
}

}  // namespace
}  // namespace pds
