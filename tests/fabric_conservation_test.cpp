// Conservation law on a fabric, exact sample-path form (Eq. 5).
//
// On one work-conserving link with equal packet sizes, the departure
// instants depend only on the arrival instants, never on which class is
// served; so the sum of queueing waits is the same under every scheduler.
// In an in-tree fabric — links may merge, but no link splits its
// departures between next hops — a link's arrival instants are its
// upstream links' departure instants plus its own open-loop arrivals, so
// by induction from the leaves the law holds on EVERY link: each link's
// sum of waits (as the probe sees it at on_dequeue) equals the FCFS run's,
// up to the rounding of a differently ordered sum.
//
// The law does not hold where cross traffic leaves mid-path (a link's
// departures then split between next hops, and which packets leave depends
// on the scheduler), so that case is not asserted here. Every link makes
// one scheduling decision per packet, the server the law is stated for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/topology.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "sched/factory.hpp"

namespace pds {
namespace {

constexpr std::uint32_t kBytes = 100;  // every packet, every class

class WaitLedger final : public PacketProbe {
 public:
  explicit WaitLedger(std::uint32_t links)
      : waits(links, 0.0), packets(links, 0) {}

  void on_dequeue(const Packet&, const ProbeContext& ctx, SimTime,
                  SimTime wait) override {
    waits[ctx.hop] += wait;
    ++packets[ctx.hop];
  }

  std::vector<double> waits;
  std::vector<std::uint64_t> packets;
};

// Six links in a three-level merge tree:
//
//   a ─┐
//      ├─ d ─┐
//   b ─┘     ├─ f
//   c ─── e ─┘
//
// Routes a→d→f, b→d→f, c→e→f, plus open-loop arrivals entering at d, at e
// and at f. Loads: leaves 0.7, d ~0.93, e ~0.9, f ~0.97; the run drains to
// quiescence after the last arrival, so every packet is counted.
WaitLedger run_tree(SchedulerKind kind) {
  Simulator sim;
  Network net(sim);
  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  const auto add = [&](double capacity, const char* name) {
    SchedulerConfig c = config;
    c.link_capacity = capacity;
    return net.add_link(kind, c, capacity, name);
  };
  const LinkId a = add(10.0, "a");
  const LinkId b = add(10.0, "b");
  const LinkId c = add(10.0, "c");
  const LinkId d = add(16.0, "d");
  const LinkId e = add(10.0, "e");
  const LinkId f = add(26.0, "f");

  const auto sink = [](const Packet&, SimTime) {};
  struct Feed {
    RouteId route;
    double mean_gap;
  };
  const std::vector<Feed> feeds = {
      {net.add_route({a, d, f}, sink), 1.0 / 0.07},
      {net.add_route({b, d, f}, sink), 1.0 / 0.07},
      {net.add_route({c, e, f}, sink), 1.0 / 0.07},
      {net.add_route({d, f}, sink), 1.0 / 0.009},
      {net.add_route({e, f}, sink), 1.0 / 0.02},
      {net.add_route({f}, sink), 1.0 / 0.015},
  };

  WaitLedger ledger(net.num_links());
  for (LinkId id = 0; id < net.num_links(); ++id) {
    net.link_mut(id).set_probe(&ledger, id);
  }

  // Same arrival instants and classes for every scheduler kind.
  Rng rng(20261017);
  std::uint64_t next_id = 0;
  for (const Feed& feed : feeds) {
    const ExponentialDist gaps(feed.mean_gap);
    for (double t = gaps.sample(rng); t < 4.0e4; t += gaps.sample(rng)) {
      Packet p;
      p.id = next_id++;
      p.cls = static_cast<ClassId>(rng.uniform_index(4));
      p.size_bytes = kBytes;
      p.created = t;
      const RouteId route = feed.route;
      sim.schedule_at(t, [&net, p, route]() { net.inject(p, route); });
    }
  }
  sim.run();
  for (LinkId id = 0; id < net.num_links(); ++id) {
    EXPECT_TRUE(net.link(id).scheduler().empty()) << "link " << id;
    EXPECT_FALSE(net.link(id).busy()) << "link " << id;
  }
  return ledger;
}

class FabricConservation : public testing::TestWithParam<SchedulerKind> {};

std::string kind_name(const testing::TestParamInfo<SchedulerKind>& param) {
  return to_string(param.param);
}

TEST_P(FabricConservation, PerLinkWaitSumMatchesFcfs) {
  const WaitLedger ref = run_tree(SchedulerKind::kFcfs);
  const WaitLedger got = run_tree(GetParam());
  ASSERT_EQ(got.waits.size(), ref.waits.size());
  for (std::size_t l = 0; l < ref.waits.size(); ++l) {
    EXPECT_GT(ref.waits[l], 0.0) << "link " << l << " never queued";
    EXPECT_EQ(got.packets[l], ref.packets[l]) << "link " << l;
    EXPECT_NEAR(got.waits[l], ref.waits[l], 1e-9 * ref.waits[l])
        << "link " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FabricConservation,
    testing::Values(SchedulerKind::kFcfs, SchedulerKind::kStrictPriority,
                    SchedulerKind::kWtp, SchedulerKind::kBpr,
                    SchedulerKind::kAdditiveWtp, SchedulerKind::kPad,
                    SchedulerKind::kHpd, SchedulerKind::kDrr,
                    SchedulerKind::kScfq, SchedulerKind::kVirtualClock),
    kind_name);

}  // namespace
}  // namespace pds
