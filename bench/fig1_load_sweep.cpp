// Figure 1 — "The effect of the aggregate load."
//
// Reproduces both panels: ratios of long-term average delays between
// successive classes under WTP and BPR as the link utilization sweeps from
// moderate (70%) to heavy (99.9%) load, for SDP spacings of 2 (Fig. 1a,
// s = 1,2,4,8) and 4 (Fig. 1b, s = 1,4,16,64). Load split 40/30/20/10,
// Pareto(1.9) interarrivals, paper packet-size law.
//
// Expected shape (paper): WTP converges to the inverse SDP ratio (2.0 / 4.0)
// as rho -> 1; BPR trends the same way but less exactly; at rho = 0.70 the
// achieved ratio sags to ~1.5 (target 2) and ~1.7 (target 4).
//
// Every (rho, scheduler, seed) cell is an independent simulation; the bench
// fans the whole panel out on the experiment engine and assembles the table
// after the barrier, so the output is byte-identical for any --jobs.
//
// Knobs: --sim-time (time units), --seeds, --quick (3e5 tu, 3 seeds),
// --jobs (worker threads; 0 = hardware). Defaults are the paper's scale:
// 1e6 time units, 10 seeds per point.
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void run_panel(const char* title, const std::vector<double>& sdp,
               double sim_time, std::uint32_t seeds) {
  const double target = sdp[1] / sdp[0];
  std::cout << "\n" << title << "  (desired average-delay ratio = " << target
            << ")\n";
  const std::vector<double> rhos{0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.999};
  const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                              pds::SchedulerKind::kBpr};

  // One sweep cell per (rho, scheduler, seed); the per-cell result is the
  // ratio vector of one replication, averaged per point after the barrier.
  const pds::SweepRunner runner({rhos.size(), kinds.size(), seeds});
  const auto cells = runner.run(
      [&](const std::vector<std::size_t>& at, std::size_t) {
        pds::StudyAConfig config;
        config.sdp = sdp;
        config.utilization = rhos[at[0]];
        config.sim_time = sim_time;
        config.scheduler = kinds[at[1]];
        config.seed = 1 + at[2];
        return pds::run_study_a(config).ratios;
      });

  pds::TablePrinter table({"rho", "WTP 1/2", "WTP 2/3", "WTP 3/4",
                           "BPR 1/2", "BPR 2/3", "BPR 3/4"});
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{pds::TablePrinter::num(rhos[r] * 100.0, 1) +
                                 "%"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> acc(sdp.size() - 1, 0.0);
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& ratios = cells[runner.grid().flat({r, k, s})];
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += ratios[i];
      }
      for (std::size_t i = 0; i < acc.size(); ++i) {
        row.push_back(
            pds::TablePrinter::num(acc[i] / static_cast<double>(seeds)));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seeds", "quick", "jobs"});
    // Defaults are the paper's scale (1e6 tu, 10 seeds);
    // --quick trades accuracy for a sub-second run.
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 3.0e5 : 1.0e6);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 3 : 10, 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Figure 1: average-delay ratios vs link utilization ===\n"
              << "sim-time " << sim_time << " tu, " << seeds
              << " seed(s) per point; load split 40/30/20/10\n";
    run_panel("Figure 1a: SDPs 1,2,4,8", {1.0, 2.0, 4.0, 8.0}, sim_time,
              seeds);
    run_panel("Figure 1b: SDPs 1,4,16,64", {1.0, 4.0, 16.0, 64.0}, sim_time,
              seeds);
    std::cout << "\nPaper reference: WTP -> target as rho -> 1; BPR close but"
                 " noisier;\nat 70% load the ratio sags to ~1.5 (panel a) /"
                 " ~1.7 (panel b).\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
