// Extension — the paper's open question, Section 5: "an interesting open
// question is whether there is a work-conserving scheduler that can achieve
// the proportional delay differentiation constraints, whenever this is
// feasible."
//
// The authors' own follow-on answer (Part II) is PAD and HPD, both
// implemented in sched/pad.hpp. This bench reruns the Figure 1a load sweep
// with all four schedulers so the trade-off is visible in one table:
//
//  * WTP:  accurate only in heavy load, best short timescales;
//  * BPR:  similar trend, noisier;
//  * PAD:  pins the long-term ratios from moderate load onward, but has no
//          short-timescale discipline;
//  * HPD:  g-weighted blend — close to PAD's long-term accuracy while
//          keeping most of WTP's short-timescale behaviour.
//
// The right-hand columns report the tau = 100 p-unit R_D inter-quartile
// range as the short-timescale quality measure (smaller = tighter).
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "stats/percentile.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct Row {
  double long_term_worst;  // worst |ratio - 2| over the three pairs
  double iqr;              // tau=100p R_D inter-quartile range
};

Row run_one(pds::SchedulerKind kind, double rho, double sim_time,
            std::uint64_t seed) {
  pds::StudyAConfig config;
  config.scheduler = kind;
  config.utilization = rho;
  config.sim_time = sim_time;
  config.seed = seed;
  config.monitor_taus = {100.0 * pds::kPUnit};
  const auto result = pds::run_study_a(config);
  Row row{0.0, 0.0};
  for (const double r : result.ratios) {
    row.long_term_worst = std::max(row.long_term_worst, std::abs(r - 2.0));
  }
  const auto& rds = result.rd_per_tau[0];
  if (rds.size() >= 4) {
    const auto q = pds::percentiles(rds, {25.0, 75.0});
    row.iqr = q[1] - q[0];
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 2.0e5 : 1.0e6);
    const auto seed = args.get_int<std::uint64_t>("seed", 7);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Extension: proportional schedulers beyond the paper"
                 " ===\nSDPs 1,2,4,8 (target ratio 2.0), load 40/30/20/10\n"
                 "column A = worst |long-term ratio - 2|  (accuracy)\n"
                 "column B = IQR of R_D at tau = 100 p-units (short-term"
                 " tightness)\n\n";
    const std::vector<double> rhos{0.75, 0.85, 0.95};
    const std::vector<pds::SchedulerKind> kinds{
        pds::SchedulerKind::kWtp, pds::SchedulerKind::kBpr,
        pds::SchedulerKind::kPad, pds::SchedulerKind::kHpd};

    // Every (rho, scheduler) cell is one independent simulation; fan the
    // 3x4 grid out and assemble the table after the barrier.
    const pds::SweepGrid grid({rhos.size(), kinds.size()});
    const auto cells = pds::run_sweep(
        grid, [&](const std::vector<std::size_t>& at, std::size_t) {
          return run_one(kinds[at[1]], rhos[at[0]], sim_time, seed);
        });

    pds::TablePrinter table({"rho", "WTP A", "WTP B", "BPR A", "BPR B",
                             "PAD A", "PAD B", "HPD A", "HPD B"});
    for (std::size_t u = 0; u < rhos.size(); ++u) {
      std::vector<std::string> row{
          pds::TablePrinter::num(rhos[u] * 100.0, 0) + "%"};
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const auto& r = cells[grid.flat({u, k})];
        row.push_back(pds::TablePrinter::num(r.long_term_worst));
        row.push_back(pds::TablePrinter::num(r.iqr));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExpected: PAD column A collapses to ~0 from rho = 0.85"
                 " on (it enforces\nthe long-term constraint directly"
                 " wherever it is feasible; at 0.75 even\nPAD rides the"
                 " Eq. 7 floor), at the price of a short-timescale IQR"
                 " that\nblows up with load. WTP/BPR column A shrinks only"
                 " as rho -> 1 but their\ncolumn B stays tight. HPD"
                 " (g = 0.875) buys most of WTP's tightness with\na"
                 " slightly better A.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
