// Figure 3 — short-timescale behaviour of WTP and BPR.
//
// For monitoring timescales tau of 10, 100, 1000, 10000 p-units (one p-unit
// = mean packet transmission time = 11.2 tu), measures the per-interval
// average-delay ratio metric R_D (Eq. 2 folded across class pairs, see
// stats/interval_monitor.hpp) and prints the paper's five percentiles
// (5/25/50/75/95) of its distribution at rho = 95%, SDPs 1,2,4,8.
//
// Expected shape (paper): at tau = 10000 p-units both schedulers sit on the
// target 2.0 in nearly all intervals; WTP's 25-75% box is tight even at tens
// of p-units, while BPR stays widely spread below hundreds of p-units.
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "stats/percentile.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

const std::vector<double>& taus_p_units() {
  static const std::vector<double> kTaus{10.0, 100.0, 1000.0, 10000.0};
  return kTaus;
}

pds::StudyAResult run_scheduler(pds::SchedulerKind kind, double sim_time,
                                std::uint64_t seed) {
  pds::StudyAConfig config;
  config.scheduler = kind;
  config.utilization = 0.95;
  config.sim_time = sim_time;
  config.seed = seed;
  for (const double tp : taus_p_units()) {
    config.monitor_taus.push_back(tp * pds::kPUnit);
  }
  return pds::run_study_a(config);
}

void print_scheduler(pds::SchedulerKind kind,
                     const pds::StudyAResult& result) {
  const auto& taus_p = taus_p_units();
  std::cout << "\n" << (kind == pds::SchedulerKind::kWtp ? "WTP" : "BPR")
            << "  (desired R_D = 2.0)\n";
  pds::TablePrinter table({"tau (p-units)", "intervals", "p5", "p25", "p50",
                           "p75", "p95"});
  for (std::size_t t = 0; t < taus_p.size(); ++t) {
    const auto& rds = result.rd_per_tau[t];
    if (rds.empty()) {
      table.add_row({pds::TablePrinter::num(taus_p[t], 0), "0", "-", "-",
                     "-", "-", "-"});
      continue;
    }
    const auto ps = pds::percentiles(rds, {5, 25, 50, 75, 95});
    table.add_row({pds::TablePrinter::num(taus_p[t], 0),
                   std::to_string(rds.size()), pds::TablePrinter::num(ps[0]),
                   pds::TablePrinter::num(ps[1]),
                   pds::TablePrinter::num(ps[2]),
                   pds::TablePrinter::num(ps[3]),
                   pds::TablePrinter::num(ps[4])});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "full", "quick", "jobs"});
    // Default exceeds the paper's 1e6 tu so even the tau = 10000 p-unit row
    // (112,000 tu per interval) gets a meaningful interval count.
    const bool full = args.get_bool("full", false);
    const bool quick = args.get_bool("quick", false);
    const double sim_time = args.get_double(
        "sim-time", full ? 2.0e7 : (quick ? 1.0e6 : 1.0e7));
    const auto seed = args.get_int<std::uint64_t>("seed", 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Figure 3: R_D percentiles vs monitoring timescale ===\n"
              << "rho = 95%, SDPs 1,2,4,8, load 40/30/20/10, sim-time "
              << sim_time << " tu\n";
    // The two scheduler runs are independent cells; fan them out.
    const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                                pds::SchedulerKind::kBpr};
    const auto results = pds::run_sweep(kinds.size(), [&](std::size_t k) {
      return run_scheduler(kinds[k], sim_time, seed);
    });
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      print_scheduler(kinds[k], results[k]);
    }
    std::cout << "\nPaper reference: both tighten onto 2.0 by tau = 10000"
                 " p-units; WTP's\n25-75 box is tight already at tens of"
                 " p-units, BPR spreads below hundreds.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
