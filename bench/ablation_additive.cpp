// Ablation — additive vs proportional differentiation (Section 2.1).
//
// Runs the additive head-start scheduler (p_i = w_i + s_i) and WTP
// (p_i = w_i * s_i) across the load sweep and reports, per load:
//   * additive: the successive-class delay *differences* against the
//     configured targets s_{i+1} - s_i (Eq. 3);
//   * WTP: the successive-class delay *ratios* against s_{i+1}/s_i.
//
// Expected shape: in heavy load the additive scheduler pins differences
// (which shrink *relatively* as delays grow), while WTP pins ratios (which
// keep their relative meaning at any delay scale) — the paper's argument
// for the proportional model's load-independent semantics.
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seeds", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 1.0e5 : 3.0e5);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 2 : 3, 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    // Head starts must stay small against the heavy-load delay scale
    // (hundreds of tu at rho=0.95): offsets comparable to the delays push
    // the top classes to near-zero delay, where the additive spacing
    // cannot be realized (the bounded-delay analogue of infeasibility).
    const std::vector<double> add_sdp{1.0, 50.0, 100.0, 150.0};
    const std::vector<double> wtp_sdp{1.0, 2.0, 4.0, 8.0};

    std::cout << "=== Ablation: additive vs proportional differentiation"
                 " ===\nadditive targets d_i - d_{i+1}: 49, 50, 50 tu;"
                 " WTP target ratios: 2.0\n\n";
    const std::vector<double> rhos{0.80, 0.90, 0.95};
    const std::vector<pds::SchedulerKind> kinds{
        pds::SchedulerKind::kAdditiveWtp, pds::SchedulerKind::kWtp};

    // Every (rho, scheduler, seed) cell is one independent simulation;
    // fan the whole grid out and aggregate after the barrier.
    const pds::SweepGrid grid({rhos.size(), kinds.size(), seeds});
    const auto cells = pds::run_sweep(
        grid, [&](const std::vector<std::size_t>& at, std::size_t) {
          pds::StudyAConfig config;
          config.utilization = rhos[at[0]];
          config.sim_time = sim_time;
          config.seed = 100 + at[2];
          config.scheduler = kinds[at[1]];
          config.sdp =
              kinds[at[1]] == pds::SchedulerKind::kAdditiveWtp ? add_sdp
                                                               : wtp_sdp;
          return pds::run_study_a(config);
        });

    pds::TablePrinter table({"rho", "ADD d1-d2", "ADD d2-d3", "ADD d3-d4",
                             "WTP d1/d2", "WTP d2/d3", "WTP d3/d4"});
    for (std::size_t u = 0; u < rhos.size(); ++u) {
      std::vector<double> diff_acc(3, 0.0);
      std::vector<double> ratio_acc(3, 0.0);
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& add = cells[grid.flat({u, 0, s})];
        const auto& wtp = cells[grid.flat({u, 1, s})];
        for (std::size_t i = 0; i < 3; ++i) {
          diff_acc[i] += add.mean_delays[i] - add.mean_delays[i + 1];
          ratio_acc[i] += wtp.ratios[i];
        }
      }
      std::vector<std::string> row{
          pds::TablePrinter::num(rhos[u] * 100.0, 0) + "%"};
      for (std::size_t i = 0; i < 3; ++i) {
        row.push_back(pds::TablePrinter::num(diff_acc[i] / seeds, 0));
      }
      for (std::size_t i = 0; i < 3; ++i) {
        row.push_back(pds::TablePrinter::num(ratio_acc[i] / seeds, 2));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExpected: ADD columns approach the 49/50/50 targets as"
                 " rho grows\n(Eq. 3 with D_ij = s_j - s_i); WTP columns"
                 " approach 2.00. Note the\ncontrast in semantics: the"
                 " additive gap loses meaning as delays grow\n(50 tu on top"
                 " of 500 is noise), while the WTP ratio scales with the\n"
                 "delay level — the paper's argument for proportional"
                 " spacing.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
