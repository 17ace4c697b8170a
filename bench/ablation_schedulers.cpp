// Ablation — every scheduler on identical arrivals.
//
// The same recorded trace (4 classes, Pareto(1.9), 95% load, equal packet
// sizes) is replayed through all ten schedulers. Because arrivals and sizes
// are identical:
//
//   * the total-wait column must be IDENTICAL across schedulers (the
//     conservation law, Eq. 5: a work-conserving server only redistributes
//     waiting time, never creates or destroys it) — printed to make the
//     law visible, not just asserted in tests;
//   * the ratio columns isolate what each discipline does with that fixed
//     waiting-time budget: FCFS splits it evenly; SP starves downward
//     (d1/d2 explodes); WTP/BPR/PAD/HPD split it ~2x per class step;
//     DRR/SCFQ/VC land wherever the load mix pushes them (with persistent
//     backlogs and 1:2:4:8 weights, VC degenerates to SP-like behaviour);
//     the additive scheduler's offsets (1,2,4,8 tu) are negligible against
//     ~150 tu delays, so its row sits at ~1.0 — additive spacing only
//     means something at the delay scale it was sized for.
#include <algorithm>
#include <iostream>

#include "core/trace_study.hpp"
#include "exp/sweep.hpp"
#include "packet/size_law.hpp"
#include "rng/distributions.hpp"
#include "traffic/calibration.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

std::vector<pds::ArrivalRecord> make_trace(double rho, double sim_time,
                                           std::uint64_t seed,
                                           std::uint32_t packet_bytes) {
  pds::Rng rng(seed);
  const auto gaps = pds::class_mean_interarrivals(
      rho, {0.4, 0.3, 0.2, 0.1}, pds::kStudyACapacity,
      static_cast<double>(packet_bytes));
  std::vector<pds::ArrivalRecord> trace;
  for (pds::ClassId c = 0; c < 4; ++c) {
    pds::Rng stream = rng.split();
    const auto dist = pds::ParetoDist::with_mean(1.9, gaps[c]);
    double t = 0.0;
    while ((t += dist.sample(stream)) <= sim_time) {
      trace.push_back(pds::ArrivalRecord{t, c, packet_bytes});
    }
  }
  std::sort(trace.begin(), trace.end(),
            [](const pds::ArrivalRecord& a, const pds::ArrivalRecord& b) {
              return a.time < b.time;
            });
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "rho", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 1.0e5 : 3.0e5);
    const double rho = args.get_double("rho", 0.95);
    const auto seed = args.get_int<std::uint64_t>("seed", 12);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    const auto trace = make_trace(rho, sim_time, seed, 441);
    std::cout << "=== Ablation: all schedulers, identical arrivals ===\n"
              << trace.size() << " packets (441 B each), rho = " << rho
              << ", SDPs 1,2,4,8, load 40/30/20/10\n\n";

    // One cell per scheduler: every replay reads the same shared trace
    // (const access only) and runs concurrently on the experiment engine.
    const std::vector<pds::SchedulerKind> kinds{
        pds::SchedulerKind::kFcfs, pds::SchedulerKind::kStrictPriority,
        pds::SchedulerKind::kWtp, pds::SchedulerKind::kBpr,
        pds::SchedulerKind::kAdditiveWtp, pds::SchedulerKind::kPad,
        pds::SchedulerKind::kHpd, pds::SchedulerKind::kDrr,
        pds::SchedulerKind::kScfq, pds::SchedulerKind::kVirtualClock};
    const auto cells = pds::run_sweep(kinds.size(), [&](std::size_t k) {
      pds::TraceStudyConfig config;
      config.scheduler = kinds[k];
      config.warmup_end = 0.1 * sim_time;
      return pds::run_trace_study(trace, config);
    });

    pds::TablePrinter table({"scheduler", "d1/d2", "d2/d3", "d3/d4",
                             "mean d4 (p-units)", "total wait (norm.)"});
    const double reference_wait = cells[0].total_wait;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& r = cells[k];
      table.add_row(
          {pds::to_string(kinds[k]), pds::TablePrinter::num(r.ratios[0]),
           pds::TablePrinter::num(r.ratios[1]),
           pds::TablePrinter::num(r.ratios[2]),
           pds::TablePrinter::num(r.mean_delays[3] / pds::kPUnit, 1),
           pds::TablePrinter::num(r.total_wait / reference_wait, 4)});
    }
    table.print(std::cout);
    std::cout << "\nExpected: the normalized total-wait column is 1.0000 for"
                 " every row\n(Eq. 5 — identical sizes, work conservation);"
                 " the ratio columns show how\neach discipline spends the"
                 " same waiting-time budget.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
