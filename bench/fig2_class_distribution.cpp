// Figure 2 — "The effect of the class load distribution."
//
// Ratios of long-term average delays between successive classes at 95%
// utilization for seven class-load mixes, under WTP and BPR, for SDP
// spacings 2 (Fig. 2a) and 4 (Fig. 2b).
//
// Expected shape (paper): WTP delivers the target ratio almost exactly for
// every mix; BPR is accurate only for the uniform mix and deviates when
// some classes carry much more load (heavily loaded classes see more than
// their share of delay). The paper's figure does not list its seven mixes
// in the text; the mixes below cover the uniform case, both monotone
// orders, and each class taking a 70% hot spot (see DESIGN.md).
//
// Every (mix, scheduler, seed) cell fans out on the experiment engine;
// the table is assembled after the barrier (byte-identical for any --jobs).
#include <iostream>
#include <sstream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

const std::vector<std::vector<double>> kMixes = {
    {0.40, 0.30, 0.20, 0.10}, {0.10, 0.20, 0.30, 0.40},
    {0.25, 0.25, 0.25, 0.25}, {0.70, 0.10, 0.10, 0.10},
    {0.10, 0.70, 0.10, 0.10}, {0.10, 0.10, 0.70, 0.10},
    {0.10, 0.10, 0.10, 0.70}};

std::string mix_name(const std::vector<double>& mix) {
  std::ostringstream os;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    os << static_cast<int>(mix[i] * 100.0 + 0.5)
       << (i + 1 < mix.size() ? "/" : "");
  }
  return os.str();
}

void run_panel(const char* title, const std::vector<double>& sdp,
               double sim_time, std::uint32_t seeds) {
  std::cout << "\n" << title << "  (desired ratio = " << sdp[1] / sdp[0]
            << ", rho = 95%)\n";
  const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                              pds::SchedulerKind::kBpr};
  const pds::SweepRunner runner({kMixes.size(), kinds.size(), seeds});
  const auto cells = runner.run(
      [&](const std::vector<std::size_t>& at, std::size_t) {
        pds::StudyAConfig config;
        config.sdp = sdp;
        config.load_fractions = kMixes[at[0]];
        config.utilization = 0.95;
        config.sim_time = sim_time;
        config.scheduler = kinds[at[1]];
        config.seed = 1 + at[2];
        return pds::run_study_a(config).ratios;
      });

  pds::TablePrinter table({"mix (c1/c2/c3/c4)", "WTP 1/2", "WTP 2/3",
                           "WTP 3/4", "BPR 1/2", "BPR 2/3", "BPR 3/4"});
  for (std::size_t m = 0; m < kMixes.size(); ++m) {
    std::vector<std::string> row{mix_name(kMixes[m])};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> acc(sdp.size() - 1, 0.0);
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& ratios = cells[runner.grid().flat({m, k, s})];
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
    // Defaults are the paper's scale; --quick for a sub-second sanity run.
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 3.0e5 : 1.0e6);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 3 : 10, 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Figure 2: average-delay ratios vs class load"
                 " distribution ===\n";
    run_panel("Figure 2a: SDPs 1,2,4,8", {1.0, 2.0, 4.0, 8.0}, sim_time,
              seeds);
    run_panel("Figure 2b: SDPs 1,4,16,64", {1.0, 4.0, 16.0, 64.0}, sim_time,
              seeds);
    std::cout << "\nPaper reference: WTP holds the target for every mix; BPR"
                 " is exact only\nnear the uniform mix and penalizes heavily"
                 " loaded classes.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
