// Figure 5 — microscopic views of the WTP scheduler.
//
// Identical setup and seed as fig4_bpr_micro (three classes, SDPs 1,2,4,
// rho = 95%, same arrival streams), so the two benches are directly
// comparable packet for packet.
//
// Expected shape (paper): WTP tracks the proportional spacing smoothly even
// packet-by-packet; its sawtooth index and collapse counts are much lower
// than BPR's.
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
    const auto prefix = args.get_string("out-prefix", "fig5_wtp");

    std::cout << "=== Figure 5: microscopic views, WTP (s = 1,2,4, rho=95%)"
                 " ===\n";
    pds::bench::run_micro_view(pds::SchedulerKind::kWtp, prefix, sim_time,
                               seed);
    std::cout << "\nPaper reference: smooth proportional tracking — the"
                 " sawtooth index and\ncollapse rate sit well below"
                 " fig4_bpr_micro's on the same arrivals.\n";
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
