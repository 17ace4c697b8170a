// General-purpose single-link simulation driver.
//
// The "swiss-army" entry point a downstream user reaches for first: pick a
// scheduler, SDPs, load, mix and run length on the command line; get the
// per-class delay table, achieved ratios vs targets, optional short-
// timescale R_D percentiles, an optional Eq. 7 feasibility audit of the
// implied DDPs, and an optional trace dump for offline analysis.
//
// Examples:
//   simulate_cli --scheduler=wtp --rho=0.9 --sdp=1,2,4,8
//   simulate_cli --scheduler=bpr --rho=0.95 --mix=10,20,30,40 --taus=10,100
//   simulate_cli --scheduler=hpd --rho=0.8 --check-feasibility
//   simulate_cli --scheduler=sp --rho=0.95 --save-trace=run.csv
//   simulate_cli --metrics-out=metrics.csv --trace-out=trace.csv --profile
//   simulate_cli --fault-plan=flap.plan --max-events=50000000
//   simulate_cli --control-plan=retune.plan --conformance-tau=100
//   simulate_cli --controller=weights --conformance-tau=100
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/feasibility.hpp"
#include "core/model.hpp"
#include "core/study_a.hpp"
#include "core/trace_io.hpp"
#include "stats/percentile.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: simulate_cli [--scheduler=wtp|bpr|fcfs|sp|"
    "additive|pad|hpd|drr|scfq|vc]\n"
    "  [--rho=0.95] [--sdp=1,2,4,8] [--mix=40,30,20,10]\n"
    "  [--arrivals=pareto|poisson]\n"
    "  [--sim-time=4e5] [--seed=1] [--taus=10,100,...]"
    " (p-units)\n"
    "  [--check-feasibility] [--save-trace=FILE]\n"
    "  [--metrics-out=FILE(.csv|.jsonl)]"
    " [--metrics-window=100] (p-units)\n"
    "  [--trace-out=FILE] [--trace-sample=0.01] [--profile]\n"
    "  [--fault-plan=FILE] (fault-plan grammar, target \"link\";"
    " see docs/robustness.md)\n"
    "  [--control-plan=FILE] (control-plan grammar, target \"link\";"
    " see docs/control_plane.md)\n"
    "  [--controller=off|weights|hpd-g] [--controller-period=100]"
    " (p-units)\n"
    "  [--controller-slo=0.10] [--controller-eta=0.5]"
    " [--controller-g-step=0.05]\n"
    "  [--max-events=N] [--max-wall-seconds=S] (watchdog; 0 = off)\n"
    "  [--spans-out=FILE.json] (Chrome trace-event timeline;"
    " open in Perfetto)\n"
    "  [--conformance-tau=T] (p-units; 0 = off)"
    " [--conformance-tolerance=0.25]\n"
    "  [--conformance-min-samples=10] [--conformance-out=FILE.jsonl]\n"
    "  [--report-out=FILE.json] [--report-volatile]"
    " (unified run report; see docs/observability.md)\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open plan file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known(
        {"scheduler", "rho", "sdp", "mix", "sim-time", "seed", "arrivals",
         "taus", "check-feasibility", "save-trace", "metrics-out",
         "metrics-window", "trace-out", "trace-sample", "profile",
         "fault-plan", "control-plan", "controller", "controller-period",
         "controller-slo", "controller-eta", "controller-g-step",
         "max-events", "max-wall-seconds", "spans-out",
         "conformance-tau", "conformance-tolerance", "conformance-min-samples",
         "conformance-out", "report-out", "report-volatile", "help"});
    if (args.has("help")) {
      std::cerr << kUsage;
      return 0;
    }

    pds::StudyAConfig config;
    config.scheduler = pds::scheduler_kind_from_string(
        args.get_string("scheduler", "wtp"));
    config.utilization = args.get_double("rho", 0.95);
    config.sdp = args.get_double_list("sdp", {1.0, 2.0, 4.0, 8.0});
    config.load_fractions =
        args.get_double_list("mix", {40.0, 30.0, 20.0, 10.0});
    // Normalize percentage-style mixes.
    double mix_total = 0.0;
    for (const double f : config.load_fractions) mix_total += f;
    for (double& f : config.load_fractions) f /= mix_total;
    config.sim_time = args.get_double("sim-time", 4.0e5);
    config.seed = args.get_int<std::uint64_t>("seed", 1);
    const auto arrivals = args.get_string("arrivals", "pareto");
    if (arrivals == "poisson") {
      config.arrivals = pds::ArrivalModel::kPoisson;
    } else if (arrivals != "pareto") {
      std::cerr << "--arrivals must be pareto or poisson\n";
      return 2;
    }
    const auto taus_p = args.get_double_list("taus", {});
    for (const double tp : taus_p) {
      config.monitor_taus.push_back(tp * pds::kPUnit);
    }
    const bool check = args.get_bool("check-feasibility", false);
    const auto trace_path = args.get_string("save-trace", "");
    config.record_trace = check || !trace_path.empty();
    config.metrics_out = args.get_string("metrics-out", "");
    config.metrics_window =
        args.get_double("metrics-window", 100.0) * pds::kPUnit;
    config.trace_out = args.get_string("trace-out", "");
    config.trace_sample = args.get_double("trace-sample", 0.01);
    config.profile = args.get_bool("profile", false);
    const auto plan_path = args.get_string("fault-plan", "");
    if (!plan_path.empty()) config.fault_plan = read_file(plan_path);
    const auto control_path = args.get_string("control-plan", "");
    if (!control_path.empty()) config.control_plan = read_file(control_path);
    config.controller.mode = pds::controller_mode_from_string(
        args.get_string("controller", "off"));
    config.controller.period =
        args.get_double("controller-period", 100.0) * pds::kPUnit;
    config.controller.slo = args.get_double("controller-slo", 0.10);
    config.controller.eta = args.get_double("controller-eta", 0.5);
    config.controller.g_step = args.get_double("controller-g-step", 0.05);
    config.max_events = args.get_int<std::uint64_t>("max-events", 0);
    config.max_wall_seconds = args.get_double("max-wall-seconds", 0.0);
    config.spans_out = args.get_string("spans-out", "");
    config.conformance_tau =
        args.get_double("conformance-tau", 0.0) * pds::kPUnit;
    config.conformance_tolerance =
        args.get_double("conformance-tolerance", 0.25);
    config.conformance_min_samples =
        args.get_int<std::uint64_t>("conformance-min-samples", 10);
    config.conformance_out = args.get_string("conformance-out", "");
    config.report_out = args.get_string("report-out", "");
    config.report_volatile = args.get_bool("report-volatile", false);

    const auto result = pds::run_study_a(config);

    std::cout << "scheduler " << args.get_string("scheduler", "wtp")
              << ", rho " << config.utilization << " (measured "
              << pds::TablePrinter::num(result.measured_utilization)
              << "), " << result.total_departures
              << " departures after warmup\n\n";

    pds::TablePrinter table({"class", "SDP", "packets",
                             "mean delay (p-units)", "jitter (p-units)",
                             "ratio to next", "target"});
    for (pds::ClassId c = 0; c < config.num_classes(); ++c) {
      const bool last = c + 1 == config.num_classes();
      table.add_row(
          {std::to_string(pds::paper_class_label(c)),
           pds::TablePrinter::num(config.sdp[c], 0),
           std::to_string(result.departures[c]),
           pds::TablePrinter::num(result.mean_delays[c] / pds::kPUnit, 1),
           pds::TablePrinter::num(result.jitter[c] / pds::kPUnit, 1),
           last ? "-" : pds::TablePrinter::num(result.ratios[c]),
           last ? "-"
                : pds::TablePrinter::num(config.sdp[c + 1] / config.sdp[c])});
    }
    table.print(std::cout);

    if (!config.monitor_taus.empty()) {
      std::cout << "\nshort-timescale R_D percentiles:\n";
      pds::TablePrinter rd({"tau (p-units)", "intervals", "p25", "p50",
                            "p75"});
      for (std::size_t t = 0; t < taus_p.size(); ++t) {
        const auto& rds = result.rd_per_tau[t];
        if (rds.size() < 4) {
          rd.add_row({pds::TablePrinter::num(taus_p[t], 0),
                      std::to_string(rds.size()), "-", "-", "-"});
          continue;
        }
        const auto q = pds::percentiles(rds, {25, 50, 75});
        rd.add_row({pds::TablePrinter::num(taus_p[t], 0),
                    std::to_string(rds.size()),
                    pds::TablePrinter::num(q[0]), pds::TablePrinter::num(q[1]),
                    pds::TablePrinter::num(q[2])});
      }
      rd.print(std::cout);
    }

    if (check) {
      const auto report = pds::check_feasibility(
          result.trace, pds::ddp_from_sdp(config.sdp), config.capacity,
          config.warmup_end());
      std::cout << "\nfeasibility of the implied DDPs (Eq. 7): "
                << report.summary() << "\n";
    }

    if (!trace_path.empty()) {
      pds::save_trace(trace_path, result.trace);
      std::cout << "\narrival trace (" << result.trace.size()
                << " records) written to " << trace_path << "\n";
    }

    if (!config.metrics_out.empty()) {
      std::cout << "\nmetrics: " << result.metrics_snapshots
                << " snapshots (window "
                << pds::TablePrinter::num(config.metrics_window / pds::kPUnit,
                                          0)
                << " p-units) written to " << config.metrics_out << "\n";
    }
    if (!config.trace_out.empty()) {
      std::cout << "lifecycle trace: " << result.trace_records
                << " sampled records (rate " << config.trace_sample
                << ") written to " << config.trace_out
                << " — inspect with trace_inspect --trace="
                << config.trace_out << "\n";
    }
    if (!config.fault_plan.empty()) {
      std::cout << "\nfault plan: " << result.fault_episodes
                << " episode(s) completed, " << result.fault_drops
                << " packet(s) dropped while the link was down\n";
    }
    if (!config.control_plan.empty()) {
      std::cout << "\ncontrol plan: " << result.control_episodes
                << " episode(s) completed (" << result.control_retunes
                << " retune, " << result.control_swaps << " swap, "
                << result.control_class_changes << " class, "
                << result.control_sheds << " shed); " << result.shed_drops
                << " shed + " << result.drain_drops
                << " drain drop(s)\n";
    }
    if (config.controller.enabled()) {
      std::cout << "\ncontroller (" << pds::to_string(config.controller.mode)
                << "): " << result.controller_ticks << " tick(s), "
                << result.controller_updates << " update(s)";
      if (config.controller.mode == pds::ControllerMode::kWeights) {
        std::cout << ", final weights";
        for (const double w : result.controller_weights) {
          std::cout << " " << pds::TablePrinter::num(w);
        }
      } else if (result.controller_updates > 0) {
        std::cout << ", final g "
                  << pds::TablePrinter::num(result.controller_g);
      }
      std::cout << "\n";
    }
    if (config.profile) {
      std::cout << "\nsimulator profile (wall time by event category):\n"
                << result.profile_report;
    }
    if (config.conformance_tau > 0.0) {
      std::cout << "\nconformance: " << result.conformance.windows
                << " window(s), " << result.conformance.pairs_checked
                << " pair(s) checked, " << result.conformance.violations
                << " violation(s)";
      if (result.conformance.violations > 0) {
        std::cout << " (max error "
                  << pds::TablePrinter::num(result.conformance.max_error)
                  << ", " << result.conformance.violations_during_faults
                  << " during faults)";
      }
      std::cout << "\n";
      if (!config.conformance_out.empty()) {
        std::cout << "violations written to " << config.conformance_out
                  << "\n";
      }
    }
    if (!config.spans_out.empty()) {
      std::cout << "\nspans: " << result.span_count << " span(s) written to "
                << config.spans_out
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!config.report_out.empty()) {
      std::cout << "run report written to " << config.report_out << "\n";
    }
    return 0;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
