// Figure 4 — microscopic views of the BPR scheduler.
//
// Three classes, SDPs 1,2,4, rho = 95%. Emits the two views as CSV
// (fig4_bpr_view1.csv: 30-p-unit class averages; fig4_bpr_view2.csv:
// per-packet delays) and prints the sawtooth summary.
//
// Expected shape (paper): BPR shows sawtooth delay trajectories — delays of
// consecutive packets ramp up and collapse after new arrivals refill a
// nearly-empty queue (the simultaneous-clearing pathology of Prop. 1) — so
// its sawtooth index and collapse counts are well above WTP's (Figure 5,
// same arrivals, same seed).
#include <iostream>

#include "exp/thread_pool.hpp"
#include "micro_common.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seed", "out-prefix", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 5.0e4 : 2.0e5);
    const auto seed = args.get_int<std::uint64_t>("seed", 9);
    pds::ThreadPool::set_global_workers(args.get_jobs());
    const auto prefix = args.get_string("out-prefix", "fig4_bpr");

    std::cout << "=== Figure 4: microscopic views, BPR (s = 1,2,4, rho=95%)"
                 " ===\n";
    pds::bench::run_micro_view(pds::SchedulerKind::kBpr, prefix, sim_time,
                               seed);
    std::cout << "\nPaper reference: sawtooth variations — compare the"
                 " sawtooth index and\ncollapse rate against fig5_wtp_micro"
                 " (same seed = same arrivals).\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
