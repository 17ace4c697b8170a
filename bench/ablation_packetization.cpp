// Ablation — BPR packetization error (Appendix 3 vs the fluid ideal).
//
// The paper attributes BPR's residual inaccuracy to "the approximations done
// in the 'packetization' of the scheduler" and concedes that the packetized
// algorithm's departure order may differ from the fluid server's. This bench
// quantifies exactly that: the same arrival trace is fed to (a) the exact
// fluid BPR server (analytically integrated, see sched/bpr_fluid.hpp) and
// (b) the Appendix 3 packetized scheduler behind a packet link, and the
// per-packet *departure times* are compared packet by packet.
//
// It also contrasts the achieved delay-ratio columns. Note the semantics
// gap: in the fluid model a packet's transmission is smeared over its whole
// sojourn (there is no "start of service"), so its queueing delay is taken
// as sojourn minus the solo transmission time size/R. That metric penalizes
// high classes (their service is always shared), which is why the fluid
// ratio column sits *below* the packetized one — an observation about the
// fluid abstraction itself, discussed in EXPERIMENTS.md.
#include <algorithm>
#include <iostream>
#include <map>

#include "exp/thread_pool.hpp"
#include "packet/size_law.hpp"
#include "rng/distributions.hpp"
#include "sched/bpr.hpp"
#include "sched/bpr_fluid.hpp"
#include "sched/link.hpp"
#include "stats/running_stats.hpp"
#include "traffic/calibration.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

std::vector<pds::Packet> make_trace(double rho, double sim_time,
                                    std::uint64_t seed) {
  pds::Rng rng(seed);
  const auto law = pds::paper_size_law();
  const auto gaps = pds::class_mean_interarrivals(
      rho, {0.4, 0.3, 0.2, 0.1}, pds::kStudyACapacity, law.mean());
  std::vector<pds::Packet> trace;
  std::uint64_t id = 0;
  for (pds::ClassId c = 0; c < 4; ++c) {
    pds::Rng stream = rng.split();
    const auto dist = pds::ParetoDist::with_mean(1.9, gaps[c]);
    double t = 0.0;
    for (;;) {
      t += dist.sample(stream);
      if (t > sim_time) break;
      pds::Packet p;
      p.id = id++;
      p.cls = c;
      p.size_bytes = pds::sample_size_bytes(law, stream);
      p.arrival = t;
      p.created = t;
      trace.push_back(p);
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const pds::Packet& a, const pds::Packet& b) {
              return a.arrival < b.arrival;
            });
  return trace;
}

pds::SchedulerConfig bpr_config() {
  pds::SchedulerConfig c;
  c.sdp = {1.0, 2.0, 4.0, 8.0};
  c.link_capacity = pds::kStudyACapacity;
  return c;
}

std::vector<double> ratios(const std::vector<pds::RunningStats>& stats) {
  std::vector<double> out;
  for (std::size_t c = 0; c + 1 < stats.size(); ++c) {
    out.push_back(stats[c].mean() / stats[c + 1].mean());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "rho", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 5.0e4 : 2.0e5);
    const double rho = args.get_double("rho", 0.95);
    const auto seed = args.get_int<std::uint64_t>("seed", 3);
    // The fluid pass feeds the packetized comparison, so the two stages are
    // inherently sequential; the pool is sized for knob consistency only.
    pds::ThreadPool::set_global_workers(args.get_jobs());
    const double warmup = 0.1 * sim_time;

    std::cout << "=== Ablation: BPR fluid ideal vs Appendix-3 packetization"
                 " ===\nrho = " << rho << ", SDPs 1,2,4,8, sim-time "
              << sim_time << " tu\n\n";
    const auto trace = make_trace(rho, sim_time, seed);

    // (a) Exact fluid server: record departures by packet id.
    std::map<std::uint64_t, double> fluid_departure;
    std::vector<pds::RunningStats> fluid_delay(4);
    pds::BprFluidServer fluid(
        bpr_config(), [&](const pds::Packet& p, pds::SimTime t) {
          fluid_departure[p.id] = t;
          if (p.arrival < warmup) return;
          const double solo =
              static_cast<double>(p.size_bytes) / pds::kStudyACapacity;
          fluid_delay[p.cls].add((t - p.arrival) - solo);
        });
    for (const auto& p : trace) fluid.arrive(p, p.arrival);
    fluid.drain();

    // (b) Packetized BPR behind a packet link.
    std::vector<pds::RunningStats> pkt_delay(4);
    std::vector<pds::RunningStats> departure_gap(4);  // |pkt - fluid|
    pds::Simulator sim;
    pds::BprScheduler sched(bpr_config());
    pds::Link link(sim, sched, pds::kStudyACapacity,
                   [&](pds::Packet&& p, pds::SimTime wait, pds::SimTime now) {
                     if (p.created < warmup) return;
                     pkt_delay[p.cls].add(wait);
                     const auto it = fluid_departure.find(p.id);
                     if (it != fluid_departure.end()) {
                       departure_gap[p.cls].add(
                           std::abs(now - it->second) / pds::kPUnit);
                     }
                   });
    for (const auto& p : trace) {
      sim.schedule_at(p.arrival, [&link, p]() { link.arrive(p); });
    }
    sim.run();

    const auto fluid_r = ratios(fluid_delay);
    const auto pkt_r = ratios(pkt_delay);
    pds::TablePrinter table({"class", "mean |departure gap| (p-units)",
                             "fluid ratio to next", "packetized ratio"});
    for (pds::ClassId c = 0; c < 4; ++c) {
      table.add_row(
          {std::to_string(c + 1),
           pds::TablePrinter::num(departure_gap[c].mean(), 2),
           c < 3 ? pds::TablePrinter::num(fluid_r[c]) : std::string("-"),
           c < 3 ? pds::TablePrinter::num(pkt_r[c]) : std::string("-")});
    }
    table.print(std::cout);
    std::cout << "\nThe departure-gap column is the packetization error of"
                 " Appendix 3: each\npacket leaves within a few packet"
                 " transmission times of its fluid ideal.\nThe ratio columns"
                 " differ because fluid service has no 'start of\n"
                 "transmission' — see EXPERIMENTS.md for the discussion.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
