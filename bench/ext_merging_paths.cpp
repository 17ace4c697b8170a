// Extension — end-to-end consistency beyond the chain: merging paths.
//
// Study B's Figure 6 is a single chain. Real paths merge: two user
// populations enter on different access links and share a backbone link.
// Using the general Network substrate (net/topology.hpp), this bench builds
//
//      access A ──┐
//                 ├── backbone ── exit
//      access B ──┘
//
// with independent cross traffic on each access link and on the backbone.
// Per-class twin flows are launched simultaneously on both paths; the
// Table 1 methodology (ten delay percentiles per flow, consistency check,
// R_D) is applied to each path separately.
//
// Expected: the per-hop, class-based mechanism keeps both populations'
// differentiation consistent even though they only share one hop — R_D
// near 2.0 on both paths, no (or vanishingly few) percentile inversions.
#include <iostream>
#include <memory>

#include "exp/thread_pool.hpp"
#include "net/topology.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/table.hpp"

namespace {

constexpr std::uint32_t kClasses = 4;

struct PathStats {
  double rd_sum = 0.0;
  std::uint64_t rd_terms = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t experiments = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"experiments", "rho", "seed", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const auto experiments =
        args.get_int<std::uint32_t>("experiments", quick ? 10 : 40, 1);
    const double rho = args.get_double("rho", 0.9);
    const auto seed = args.get_int<std::uint64_t>("seed", 2);
    // One simulation only — the pool is sized for consistency with the
    // other benches (nothing fans out here).
    pds::ThreadPool::set_global_workers(args.get_jobs());

    const double bw_bps = 25e6;
    const double capacity = bw_bps / 8.0;
    const std::uint32_t pkt = 500;
    const double flow_gap = pkt * 8.0 / 50e3;  // R_u = 50 kbps
    const std::uint32_t flow_packets = 20;
    const double warmup = 10.0;

    pds::Simulator sim;
    pds::PacketIdAllocator ids;
    pds::Rng master(seed);

    pds::SchedulerConfig sc;
    sc.sdp = {1.0, 2.0, 4.0, 8.0};
    sc.link_capacity = capacity;

    pds::Network net(sim);
    const auto access_a =
        net.add_link(pds::SchedulerKind::kWtp, sc, capacity, "accessA");
    const auto access_b =
        net.add_link(pds::SchedulerKind::kWtp, sc, capacity, "accessB");
    const auto backbone =
        net.add_link(pds::SchedulerKind::kWtp, sc, capacity, "backbone");

    // Per-flow end-to-end delays: flow id = ((path * M) + experiment) *
    // kClasses + class.
    const std::uint32_t flows_total = 2 * experiments * kClasses;
    std::vector<pds::SampleSet> flow_delays(flows_total);
    const auto on_exit = [&](const pds::Packet& p, pds::SimTime) {
      flow_delays[p.flow].add(p.cum_queueing);
    };
    const auto route_a = net.add_route({access_a, backbone}, on_exit);
    const auto route_b = net.add_route({access_b, backbone}, on_exit);
    // Cross traffic exits after a single hop.
    const auto cross_sink = [](const pds::Packet&, pds::SimTime) {};
    const auto cross_a = net.add_route({access_a}, cross_sink);
    const auto cross_b = net.add_route({access_b}, cross_sink);
    const auto cross_bb = net.add_route({backbone}, cross_sink);

    // Cross load: each access link carries its user flows + cross; the
    // backbone carries BOTH user populations + its own cross. Calibrate
    // all three links to rho.
    const double user_rate =
        static_cast<double>(kClasses) * flow_packets * pkt / 1.0;  // per s
    const double access_cross = rho * capacity - user_rate;
    const double backbone_cross = rho * capacity - 2.0 * user_rate;
    PDS_CHECK(access_cross > 0 && backbone_cross > 0,
              "user flows exceed the utilization target");

    std::vector<std::unique_ptr<pds::ClassMixSource>> cross;
    const std::vector<double> mix{0.4, 0.3, 0.2, 0.1};
    const auto add_cross = [&](pds::RouteId route, double rate) {
      for (int s = 0; s < 4; ++s) {
        cross.push_back(std::make_unique<pds::ClassMixSource>(
            sim, ids, mix, pds::pareto_gaps(1.9, pkt / (rate / 4.0)),
            pds::fixed_size(pkt), master.split(),
            [&net, route](pds::Packet p) { net.inject(p, route); }));
        cross.back()->start(0.0);
      }
    };
    add_cross(cross_a, access_cross);
    add_cross(cross_b, access_cross);
    add_cross(cross_bb, backbone_cross);

    // Twin flows per experiment on each path, one per class.
    std::vector<std::unique_ptr<pds::CbrFlowSource>> flows;
    for (std::uint32_t path = 0; path < 2; ++path) {
      for (std::uint32_t k = 0; k < experiments; ++k) {
        for (pds::ClassId c = 0; c < kClasses; ++c) {
          const pds::FlowId id =
              (path * experiments + k) * kClasses + c;
          const auto route = path == 0 ? route_a : route_b;
          flows.push_back(std::make_unique<pds::CbrFlowSource>(
              sim, ids, c, id, flow_packets, pkt, flow_gap,
              [&net, route](pds::Packet p) { net.inject(p, route); }));
          flows.back()->start(warmup + k * 1.0);
        }
      }
    }

    const double t_stop =
        warmup + experiments * 1.0 + flow_packets * flow_gap + 1.0;
    sim.run_until(t_stop);
    for (auto& s : cross) s->stop();
    sim.run();

    // Table 1 methodology per path.
    const std::vector<double> ps{10, 20, 30, 40, 50, 60, 70, 80, 90, 99};
    pds::TablePrinter table({"path", "R_D (ideal 2.00)",
                             "inconsistent experiments", "backbone rho"});
    for (std::uint32_t path = 0; path < 2; ++path) {
      PathStats stats;
      for (std::uint32_t k = 0; k < experiments; ++k) {
        std::vector<std::vector<double>> pct(kClasses);
        for (pds::ClassId c = 0; c < kClasses; ++c) {
          pct[c] =
              flow_delays[(path * experiments + k) * kClasses + c]
                  .percentiles(ps);
        }
        bool inconsistent = false;
        for (pds::ClassId lo = 0; lo + 1 < kClasses; ++lo) {
          for (std::size_t q = 0; q < ps.size(); ++q) {
            if (pct[lo + 1][q] > pct[lo][q] * (1.0 + 1e-12)) {
              inconsistent = true;
            }
            if (pct[lo + 1][q] > 1e-9) {
              stats.rd_sum += pct[lo][q] / pct[lo + 1][q];
              ++stats.rd_terms;
            }
          }
        }
        if (inconsistent) ++stats.inconsistent;
      }
      table.add_row({path == 0 ? "A (via accessA)" : "B (via accessB)",
                     pds::TablePrinter::num(
                         stats.rd_sum / static_cast<double>(stats.rd_terms)),
                     std::to_string(stats.inconsistent) + " of " +
                         std::to_string(experiments),
                     pds::TablePrinter::num(net.link(backbone).busy_time() /
                                            sim.now())});
    }
    std::cout << "=== Extension: merging paths (Y topology), WTP per hop"
                 " ===\ntwo access links + shared backbone at rho = " << rho
              << ", " << experiments << " experiments per path\n\n";
    table.print(std::cout);
    std::cout << "\nExpected: both populations see consistent ~2x spacing"
                 " end to end even\nthough they share only the backbone"
                 " hop.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
