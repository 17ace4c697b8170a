// Extension — whole-distribution view of the differentiation.
//
// The paper evaluates means (Figs. 1-2), interval means (Fig. 3) and
// end-to-end percentiles (Table 1). This bench looks at the full per-class
// queueing-delay distribution on one heavy-loaded link and compares three
// disciplines:
//
//   * FCFS:  one shared distribution — no differentiation (the baseline
//            "same service to all").
//   * WTP:   proportional spacing visible at *every* quantile, not just
//            the mean: p50, p90, p99 all separate by ~the SDP ratio.
//   * SP:    strict priority over-differentiates: the top class collapses
//            to near zero while class 1's tail explodes.
//
// Per-class CCDF rows are exported as CSV for plotting.
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "stats/histogram.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

pds::StudyAResult simulate(pds::SchedulerKind kind, double sim_time,
                           std::uint64_t seed) {
  pds::StudyAConfig config;
  config.scheduler = kind;
  config.utilization = 0.95;
  config.sim_time = sim_time;
  config.seed = seed;
  config.record_departures = true;
  config.report_percentiles = {50.0, 90.0, 99.0};
  return pds::run_study_a(config);
}

void report(const pds::StudyAResult& result, const char* label,
            const std::string& csv_prefix) {
  std::cout << "\n" << label << "\n";
  pds::TablePrinter table({"class", "mean (p-units)", "p50", "p90", "p99"});
  for (pds::ClassId c = 0; c < 4; ++c) {
    table.add_row({std::to_string(pds::paper_class_label(c)),
                   pds::TablePrinter::num(result.mean_delays[c] / pds::kPUnit,
                                          1),
                   pds::TablePrinter::num(
                       result.delay_percentiles[c][0] / pds::kPUnit, 1),
                   pds::TablePrinter::num(
                       result.delay_percentiles[c][1] / pds::kPUnit, 1),
                   pds::TablePrinter::num(
                       result.delay_percentiles[c][2] / pds::kPUnit, 1)});
  }
  table.print(std::cout);

  // CCDF export: one log-binned histogram per class.
  std::vector<pds::LogHistogram> hist(
      4, pds::LogHistogram(0.1 * pds::kPUnit, 1.5, 24));
  for (const auto& rec : result.per_packet) {
    hist[rec.cls].add(rec.delay);
  }
  pds::CsvWriter csv(csv_prefix + "_ccdf.csv",
                     {"bound_p_units", "class1", "class2", "class3",
                      "class4"});
  std::vector<std::vector<pds::LogHistogram::Row>> rows;
  for (const auto& h : hist) rows.push_back(h.rows());
  for (std::size_t i = 0; i < rows[0].size(); ++i) {
    csv.add_row(std::vector<double>{rows[0][i].bound / pds::kPUnit,
                                    rows[0][i].ccdf, rows[1][i].ccdf,
                                    rows[2][i].ccdf, rows[3][i].ccdf});
  }
  std::cout << "CCDF rows -> " << csv.path() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 1.0e5 : 4.0e5);
    const auto seed = args.get_int<std::uint64_t>("seed", 6);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Extension: per-class delay distributions at rho = 95%"
                 " ===\nSDPs 1,2,4,8, load 40/30/20/10; delays in p-units\n";
    // The three discipline runs are independent cells; the simulations fan
    // out on the experiment engine, then tables and CSVs are written
    // serially so the output order is fixed.
    const std::vector<pds::SchedulerKind> kinds{
        pds::SchedulerKind::kFcfs, pds::SchedulerKind::kWtp,
        pds::SchedulerKind::kStrictPriority};
    const auto cells = pds::run_sweep(kinds.size(), [&](std::size_t k) {
      return simulate(kinds[k], sim_time, seed);
    });
    report(cells[0], "FCFS (no differentiation)", "dist_fcfs");
    report(cells[1], "WTP (proportional)", "dist_wtp");
    report(cells[2], "Strict Priority", "dist_sp");
    std::cout << "\nExpected: FCFS rows identical across classes; WTP rows"
                 " spaced ~2x at\nevery percentile; SP collapses the top"
                 " class and stretches class 1's tail.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
