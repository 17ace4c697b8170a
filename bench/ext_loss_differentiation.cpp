// Extension — proportional loss-rate differentiation (the paper's stated
// future work: Sections 1 and 7 defer "coupled delay and loss
// differentiation").
//
// A finite-buffer WTP link is driven into sustained overload (Study A's
// harness with a 200-packet buffer, core/study_a.hpp). Three drop policies
// are compared:
//   * drop-tail (arriving packet discarded): loss rates follow the class
//     *load* shares, not any operator target;
//   * PLR(inf): loss-rate ratios pinned to the LDPs over the whole run;
//   * PLR(M):   same target over a sliding window of M arrivals.
//
// Expected shape: PLR variants hold l_i / l_{i+1} ~= sigma_i / sigma_{i+1}
// = 2 while drop-tail's ratios follow the load mix; meanwhile WTP keeps
// the surviving packets' *delay* ratios differentiated — coupled delay and
// loss differentiation from one node.
#include <cmath>
#include <iostream>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

std::string loss_row(const pds::StudyAResult& r) {
  std::string out;
  for (std::size_t c = 0; c < r.loss_rates.size(); ++c) {
    out += pds::TablePrinter::num(100.0 * r.loss_rates[c], 1) + "%";
    if (c + 1 < r.loss_rates.size()) out += " / ";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known(
        {"sim-time", "seed", "overload", "mix", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    pds::StudyAConfig base;
    base.ldp = {8.0, 4.0, 2.0, 1.0};
    base.buffer_packets = 200;
    base.packet_bytes = 441;  // a fixed size keeps loss rates clean
    base.sim_time = args.get_double("sim-time", quick ? 5.0e4 : 2.0e5);
    base.seed = args.get_int<std::uint64_t>("seed", 5);
    base.utilization = args.get_double("overload", 1.3);
    base.load_fractions =
        args.get_double_list("mix", {0.25, 0.25, 0.25, 0.25});
    pds::ThreadPool::set_global_workers(args.get_jobs());

    std::cout << "=== Extension: proportional loss differentiation under "
              << pds::TablePrinter::num((base.utilization - 1.0) * 100.0, 0)
              << "% overload ===\nLDPs sigma = 8,4,2,1 (higher class ->"
                 " less loss); target loss ratio 2 per pair\n\n";

    // The three drop-policy runs are independent cells; fan them out and
    // assemble the table after the barrier.
    const std::vector<std::tuple<std::string, pds::DropPolicy, std::uint64_t>>
        policies{{"drop-tail", pds::DropPolicy::kDropIncoming, 0},
                 {"PLR(inf)", pds::DropPolicy::kPlr, 0},
                 {"PLR(2000)", pds::DropPolicy::kPlr, 2000}};
    const auto cells = pds::run_sweep(policies.size(), [&](std::size_t i) {
      auto config = base;
      config.drop_policy = std::get<1>(policies[i]);
      config.plr_window = std::get<2>(policies[i]);
      return pds::run_study_a(config);
    });

    pds::TablePrinter table({"policy", "loss c1/c2/c3/c4", "l1/l2", "l2/l3",
                             "l3/l4", "agg loss"});
    pds::StudyAResult plr_result;
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const auto& name = std::get<0>(policies[i]);
      const auto& r = cells[i];
      if (name == "PLR(inf)") plr_result = r;
      std::vector<std::string> row{name, loss_row(r)};
      for (const double ratio : r.loss_ratios) {
        row.push_back(std::isfinite(ratio)
                          ? pds::TablePrinter::num(ratio)
                          : std::string("inf"));
      }
      row.push_back(pds::TablePrinter::num(100.0 * r.aggregate_loss_rate, 1) +
                    "%");
      table.add_row(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nsurvivor delay ratios under PLR(inf) (WTP still"
                 " differentiates delays): ";
    for (const double r : plr_result.ratios) {
      std::cout << pds::TablePrinter::num(r) << " ";
    }
    std::cout << "\nExpected: PLR rows pin the loss ratios at 2.00; the"
                 " drop-tail row\nfollows the load shares instead.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
