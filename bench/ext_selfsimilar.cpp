// Extension — proportional differentiation under self-similar traffic.
//
// Section 1 motivates the whole design with Internet traffic that is
// "bursty over a wide range of timescales"; the Study A sources use Pareto
// renewal processes. This bench goes one step further and drives the link
// with aggregated Pareto on/off sources — the canonical self-similar
// construction — then reports:
//
//   1. the variance-time Hurst estimate of the offered traffic (checking it
//      really is long-range dependent, H >> 0.5), and
//   2. the long-term delay ratios under WTP and BPR on that traffic.
//
// Expected: H around 0.7-0.9 for the on/off aggregate (vs 0.5 for
// Poisson), and WTP still holding the proportional spacing — per-hop
// differentiation does not depend on the traffic being nice.
#include <iostream>
#include <memory>

#include "dsim/simulator.hpp"
#include "exp/sweep.hpp"
#include "packet/size_law.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "stats/delay_stats.hpp"
#include "stats/variance_time.hpp"
#include "traffic/onoff.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct RunResult {
  std::vector<double> ratios;
  double hurst = 0.0;
  double utilization = 0.0;
};

RunResult run(pds::SchedulerKind kind, double sim_time, std::uint64_t seed,
              int sources_per_class) {
  pds::Simulator sim;
  pds::PacketIdAllocator ids;
  pds::Rng master(seed);

  pds::SchedulerConfig sc;
  sc.sdp = {1.0, 2.0, 4.0, 8.0};
  sc.link_capacity = pds::kStudyACapacity;
  const auto sched = pds::make_scheduler(kind, sc);

  const double warmup = 0.1 * sim_time;
  pds::ClassDelayStats delays(4, warmup);
  pds::Link link(sim, *sched, pds::kStudyACapacity,
                 [&](pds::Packet&& p, pds::SimTime wait, pds::SimTime now) {
                   delays.record(p.cls, wait, now);
                 });

  // Per class: `sources_per_class` on/off sources whose aggregate mean
  // rate implements the 40/30/20/10 split at rho ~ 0.95. ON/OFF means of
  // 60/240 p-units with alpha = 1.5 give strong long-range dependence.
  pds::CountSeries counts(5.0 * pds::kPUnit, warmup);
  std::vector<std::unique_ptr<pds::OnOffSource>> sources;
  const std::vector<double> fractions{0.4, 0.3, 0.2, 0.1};
  for (pds::ClassId c = 0; c < 4; ++c) {
    const double class_rate =
        0.95 * pds::kStudyACapacity * fractions[c];  // bytes per tu
    for (int s = 0; s < sources_per_class; ++s) {
      pds::OnOffConfig cfg;
      cfg.cls = c;
      cfg.packet_bytes = 441;  // mean paper packet, fixed for rate control
      cfg.mean_on = 60.0 * pds::kPUnit;
      cfg.mean_off = 240.0 * pds::kPUnit;
      cfg.pareto_alpha = 1.5;
      // peak = rate / duty cycle so the long-run mean hits the target.
      cfg.peak_rate = class_rate / sources_per_class /
                      (cfg.mean_on / (cfg.mean_on + cfg.mean_off));
      sources.push_back(std::make_unique<pds::OnOffSource>(
          sim, ids, cfg, master.split(), [&](pds::Packet p) {
            counts.record(sim.now());
            link.arrive(std::move(p));
          }));
      sources.back()->start(0.0);
    }
  }

  sim.run_until(sim_time);
  for (auto& s : sources) s->stop();

  RunResult result;
  result.ratios = delays.successive_ratios();
  result.utilization = link.busy_time() / sim_time;
  const auto series = counts.finish();
  const auto points = pds::variance_time(series, {1, 4, 16, 64, 256});
  result.hurst = pds::hurst_from_slope(pds::variance_time_slope(points));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "sources", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 3.0e5 : 2.0e6);
    const auto seed = args.get_int<std::uint64_t>("seed", 19);
    pds::ThreadPool::set_global_workers(args.get_jobs());
    const auto sources = args.get_int<int>("sources", 8, 1);

    std::cout << "=== Extension: WTP/BPR under self-similar (Pareto on/off)"
                 " traffic ===\n"
              << sources << " on/off sources per class, alpha = 1.5, target"
                 " rho = 0.95\n\n";
    // The two scheduler runs are independent cells; fan them out.
    const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                                pds::SchedulerKind::kBpr};
    const auto cells = pds::run_sweep(kinds.size(), [&](std::size_t k) {
      return run(kinds[k], sim_time, seed, sources);
    });

    pds::TablePrinter table({"scheduler", "measured rho", "Hurst est.",
                             "d1/d2", "d2/d3", "d3/d4"});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& r = cells[k];
      table.add_row({kinds[k] == pds::SchedulerKind::kWtp ? "WTP" : "BPR",
                     pds::TablePrinter::num(r.utilization),
                     pds::TablePrinter::num(r.hurst),
                     pds::TablePrinter::num(r.ratios[0]),
                     pds::TablePrinter::num(r.ratios[1]),
                     pds::TablePrinter::num(r.ratios[2])});
    }
    table.print(std::cout);
    std::cout << "\nExpected: Hurst well above the Poisson 0.5 (long-range-"
                 "dependent input),\nand the delay ratios still tracking the"
                 " 2.0 target in the heavy-load\nepisodes such traffic"
                 " creates.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
