// Microbenchmark — experiment-engine scaling and determinism.
//
// Runs the Figure 1a panel (rho sweep x {WTP, BPR} x seeds, one run_study_a
// per cell) through the work-stealing pool at 1, 2, 4, 8 and
// hardware_concurrency workers, and reports wall-clock, speedup over the
// single-worker run, and parallel efficiency (speedup / workers).
//
// The rendered result table of every worker count is byte-compared against
// the single-worker rendering — the engine's determinism contract says the
// fan-out must not change a single output byte. A mismatch is the only
// nonzero exit; slow hardware never fails the bench.
//
// Knobs: --sim-time, --seeds, --workers (comma list overriding the default
// ladder), --quick (small grid), --jobs (extra ladder entry, 0 = hardware).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

// One fan-out over the fig1a grid at the current global pool size; returns
// the rendered per-point table so runs can be byte-compared.
std::string run_grid(const std::vector<double>& rhos, double sim_time,
                     std::uint32_t seeds) {
  const std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
  const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                              pds::SchedulerKind::kBpr};
  const pds::SweepGrid grid({rhos.size(), kinds.size(), seeds});
  const auto cells = pds::run_sweep(
      grid, [&](const std::vector<std::size_t>& at, std::size_t) {
        pds::StudyAConfig config;
        config.sdp = sdp;
        config.utilization = rhos[at[0]];
        config.sim_time = sim_time;
        config.scheduler = kinds[at[1]];
        config.seed = 1 + at[2];
        return pds::run_study_a(config).ratios;
      });

  std::ostringstream os;
  pds::TablePrinter table({"rho", "WTP 1/2", "WTP 2/3", "WTP 3/4",
                           "BPR 1/2", "BPR 2/3", "BPR 3/4"});
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{pds::TablePrinter::num(rhos[r] * 100.0, 1) +
                                 "%"};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> acc(sdp.size() - 1, 0.0);
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto& ratios = cells[grid.flat({r, k, s})];
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += ratios[i];
      }
      for (std::size_t i = 0; i < acc.size(); ++i) {
        row.push_back(
            pds::TablePrinter::num(acc[i] / static_cast<double>(seeds)));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seeds", "workers", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 5.0e4 : 3.0e5);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 2 : 4, 1);
    const std::vector<double> rhos =
        quick ? std::vector<double>{0.80, 0.95}
              : std::vector<double>{0.70, 0.80, 0.90, 0.95, 0.999};

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::uint32_t> ladder;
    for (const double w : args.get_double_list(
             "workers", {1.0, 2.0, 4.0, 8.0,
                         static_cast<double>(std::min(hw, pds::kMaxJobs))})) {
      ladder.push_back(pds::ThreadPool::resolve_workers(
          static_cast<std::uint32_t>(w)));
    }
    if (const std::uint32_t jobs = args.get_jobs(); jobs != 0) {
      ladder.push_back(jobs);
    }
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());

    std::cout << "=== exp engine scaling: fig1a grid, "
              << rhos.size() * 2 * seeds << " cells, sim-time " << sim_time
              << " tu ===\nhardware_concurrency = " << hw << "\n\n";

    pds::TablePrinter table(
        {"workers", "wall (s)", "speedup", "efficiency"});
    std::string reference;  // single-worker (serial-order) rendering
    double reference_wall = 0.0;
    bool mismatch = false;
    for (const std::uint32_t workers : ladder) {
      pds::ThreadPool::set_global_workers(workers);
      const auto t0 = std::chrono::steady_clock::now();
      const std::string out = run_grid(rhos, sim_time, seeds);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (reference.empty()) {
        reference = out;
        reference_wall = wall;
      } else if (out != reference) {
        mismatch = true;
      }
      const double speedup = reference_wall / wall;
      table.add_row({std::to_string(workers), pds::TablePrinter::num(wall, 3),
                     pds::TablePrinter::num(speedup),
                     pds::TablePrinter::num(
                         speedup / static_cast<double>(workers))});
    }
    table.print(std::cout);
    std::cout << "\ndeterminism: every worker count produced "
              << (mismatch ? "DIFFERENT output (BUG)"
                           : "byte-identical output")
              << " vs 1 worker.\n";
    if (hw == 1) {
      std::cout << "note: single-core host — speedups ~1.0 are expected"
                   " here; the ladder\nexercises the pool paths, the"
                   " determinism check is the contract.\n";
    }
    return mismatch ? 1 : 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
