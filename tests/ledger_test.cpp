// Per-link packet ledger: at run end every packet that reached a link is
// accounted for — transmitted, dropped by exactly one mechanism, or still
// queued — using only the link's own counters:
//
//   sum_c arrivals(c) = packets_sent + fault + drain + shed
//                       + sum_c drops(c) + burst drops + queued backlog
//
// A packet on the wire counts as sent (packets_sent moves at transmission
// start). The fabric is assembled from public parts the way the scenario
// runner assembles it, with faults and control actions on buffered and on
// lossless links alike. No probe is involved, so the identity also holds
// in a -DPDS_OBS=OFF build.
#include <gtest/gtest.h>

#include <vector>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/flows.hpp"
#include "net/topology.hpp"
#include "traffic/source.hpp"

namespace pds {
namespace {

// Drop totals of one kind of link (buffered or lossless).
struct DropTotals {
  std::uint64_t fault = 0;
  std::uint64_t drain = 0;
  std::uint64_t shed = 0;
  std::uint64_t buffer = 0;
  std::uint64_t burst = 0;
};

constexpr double kCapacity = 39.375;

const char* kFaultPlan =
    "seed 3\n"
    "down p0agg0>core0 at=4000 for=1500 mode=hold\n"
    "down core0>p1agg0 at=8000 for=1500 mode=hold\n"
    "down p1agg0>p1edge1 at=12000 for=1500 mode=drop\n"
    "down p0edge1>p0agg0 at=15000 for=1500 mode=drop\n"
    "loss p0edge0>p0agg0 at=18000 for=6000 rate=0.1\n";

const char* kControlPlan =
    "seed 3\n"
    "shed p0agg0>core0 at=5500 for=2000 watermark=2 classes=2\n"
    "shed core0>p1agg0 at=9500 for=2000 watermark=2 classes=2\n"
    "class p1agg0>p1edge1 at=20000 drain=0\n"
    "class p1agg0>p1edge1 at=24000 add=0\n"
    "class p0edge1>p0agg0 at=21000 drain=0\n"
    "class p0edge1>p0agg0 at=25000 add=0\n";

TEST(PacketLedger, EveryLinkAccountsForEveryArrival) {
  Simulator sim;
  PacketIdAllocator ids;
  FlowIdAllocator flow_ids;
  Rng master(11);
  Network net(sim);

  SchedulerConfig sc;
  sc.sdp = {1.0, 2.0, 4.0};
  sc.link_capacity = kCapacity;
  build_topology(net, make_fat_tree_topology(4), SchedulerKind::kWtp, sc,
                 kCapacity);
  // build_topology creates each edge's up direction first, so the even link
  // ids are the uplinks: they get a drop-tail buffer, downlinks stay
  // lossless.
  for (LinkId id = 0; id < net.num_links(); id += 2) net.make_lossy(id, 20);

  const auto node = [&](const char* name) { return *net.find_node(name); };
  std::vector<std::vector<RpcWorkload*>> dispatch;  // per route
  const auto exit = [&](const Packet& p, SimTime now) {
    for (RpcWorkload* wl : dispatch[p.route]) wl->on_route_exit(p, now);
  };
  const RouteId rpc = net.add_route_between(node("p0edge0"), node("p1edge0"),
                                            exit);
  const RouteId back = net.add_route_between(node("p1edge0"),
                                             node("p0edge0"), exit);
  const RouteId bg = net.add_route_between(node("p0edge1"), node("p1edge1"),
                                           exit);
  dispatch.assign(net.num_routes(), {});

  ClassMixSource background(sim, ids, {60.0, 30.0, 10.0},
                            pareto_gaps(1.9, 30.0), fixed_size(441),
                            master.split(), [&](Packet p) {
                              net.inject(std::move(p), bg);
                            });
  RpcConfig rc;
  rc.cls = 2;
  rc.users = 24;
  rc.request_packets = 2;
  rc.response_packets = 2;
  rc.size_bytes = 441;
  rc.think_mean = 1500.0;
  rc.deadline = 450.0;
  rc.rto = 900.0;
  rc.max_retries = 2;
  RpcWorkload workload(sim, net, ids, flow_ids, rpc, back, rc,
                       master.split());
  dispatch[rpc].push_back(&workload);
  dispatch[back].push_back(&workload);
  background.start(0.0);
  workload.start(0.0);

  FaultInjector faults(sim, parse_fault_plan(kFaultPlan));
  attach_network(faults, net);
  faults.arm();
  ControlInjector control(sim, parse_control_plan(kControlPlan));
  attach_network(control, net);
  control.arm();

  sim.run_until(30000.0);
  background.stop();

  DropTotals buffered_totals;
  DropTotals lossless_totals;
  for (LinkId id = 0; id < net.num_links(); ++id) {
    const Link& link = net.link(id);
    const Scheduler& sched = link.scheduler();
    DropTotals& totals =
        link.has_buffer() ? buffered_totals : lossless_totals;
    std::uint64_t arrivals = 0;
    std::uint64_t buffer = 0;
    for (ClassId c = 0; c < sched.num_classes(); ++c) {
      arrivals += link.arrivals(c);
      buffer += link.drops(c);
    }
    EXPECT_EQ(arrivals, link.packets_sent() + link.fault_drops() +
                            link.drain_drops() + link.shed_drops() + buffer +
                            link.burst_drops() +
                            sched.total_backlog_packets())
        << net.link_name(id);
    totals.fault += link.fault_drops();
    totals.drain += link.drain_drops();
    totals.shed += link.shed_drops();
    totals.buffer += buffer;
    totals.burst += link.burst_drops();
  }

  // The plans exercised every ledger term on both kinds of link, and the
  // flows retried.
  EXPECT_EQ(faults.episodes_completed(), faults.scheduled_episodes());
  EXPECT_EQ(control.episodes_completed(), control.scheduled_episodes());
  for (const DropTotals* t : {&buffered_totals, &lossless_totals}) {
    EXPECT_GT(t->fault, 0u);
    EXPECT_GT(t->drain, 0u);
    EXPECT_GT(t->shed, 0u);
  }
  EXPECT_GT(buffered_totals.buffer, 0u);
  EXPECT_GT(buffered_totals.burst, 0u);
  EXPECT_EQ(lossless_totals.buffer, 0u);
  EXPECT_EQ(lossless_totals.burst, 0u);
  EXPECT_GT(workload.stats().retries, 0u);
}

}  // namespace
}  // namespace pds
