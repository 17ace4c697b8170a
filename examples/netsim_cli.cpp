// Scenario runner: execute a .pds scenario file (see net/scenario.hpp for
// the format) and print per-route per-class delays plus link utilization —
// the ns-2-script role for this library. Scenarios with `flows` directives
// additionally report per-workload flow-completion-time percentiles and
// SLO attainment.
//
//   netsim_cli --file=examples/scenarios/y_merge.pds [--seed=7]
//   netsim_cli --file=examples/scenarios/fat_tree.pds --report-out=run.json
//   netsim_cli --file=... --sweep-users=10,20,40,80 --jobs=4
//
// With no --file, a built-in demonstration scenario (a Y merge) runs.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/sweep.hpp"
#include "net/scenario.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/line_lexer.hpp"
#include "util/table.hpp"

namespace {

const char* kBuiltin = R"(# Built-in demo: two access links merging into a backbone.
link accessA  capacity=39.375 sched=wtp sdp=1,2,4,8
link accessB  capacity=39.375 sched=wtp sdp=1,2,4,8
link backbone capacity=39.375 sched=wtp sdp=1,2,4,8
route pathA accessA backbone
route pathB accessB backbone
source mix pathA fractions=40,30,20,10 gap=24 size=441 pareto=1.9
source mix pathB fractions=40,30,20,10 gap=24 size=441 pareto=1.9
run until=300000 warmup=30000 seed=11
)";

constexpr const char kUsage[] =
    "usage: netsim_cli [--file=SCENARIO.pds] [--seed=N]\n"
    "  [--users=N] (override users= of every flows directive)\n"
    "  [--quick] (run 10% of the horizon; smoke-test mode)\n"
    "  [--horizon-scale=S] (scale until/warmup by S)\n"
    "  [--fault-plan=FILE] (fault-plan grammar; targets are link names)\n"
    "  [--control-plan=FILE] (control-plan grammar; targets are link"
    " names)\n"
    "  [--max-events=N] [--max-wall-seconds=S] (watchdog; 0 = off)\n"
    "  [--metrics-out=FILE(.csv|.jsonl)] [--metrics-window=5000] (tu)\n"
    "  [--report-out=FILE.json] (pds.run_report/1 document)\n"
    "  [--sweep-users=N1,N2,...] [--jobs=N] (closed-loop load sweep;\n"
    "   output is byte-identical for any --jobs)\n";

std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument(std::string("cannot open ") + what + ": " +
                                path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void print_flow_table(const pds::ScenarioReport& report, std::ostream& out) {
  pds::TablePrinter flows({"route", "class", "users", "rpcs", "failed",
                           "retries", "fct p50", "fct p95", "fct p99",
                           "slo"});
  for (const auto& fs : report.flow_stats) {
    flows.add_row({fs.route, std::to_string(pds::paper_class_label(fs.cls)),
                   std::to_string(fs.users),
                   std::to_string(fs.completed + fs.failed),
                   std::to_string(fs.failed), std::to_string(fs.retries),
                   pds::TablePrinter::num(fs.fct_p50, 1),
                   pds::TablePrinter::num(fs.fct_p95, 1),
                   pds::TablePrinter::num(fs.fct_p99, 1),
                   pds::TablePrinter::num(fs.slo_attainment)});
  }
  flows.print(out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"file", "seed", "users", "quick", "horizon-scale",
                        "fault-plan", "control-plan", "max-events",
                        "max-wall-seconds",
                        "metrics-out", "metrics-window", "report-out",
                        "sweep-users", "jobs", "help"});
    if (args.has("help")) {
      std::cout << kUsage;
      return 0;
    }
    std::string text;
    const auto path = args.get_string("file", "");
    if (path.empty()) {
      std::cout << "(no --file given; running the built-in Y-merge demo)\n\n";
      text = kBuiltin;
    } else {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }

    pds::ScenarioOptions options;
    if (args.has("seed")) {
      options.seed = args.get_int<std::uint64_t>("seed", 1);
    }
    if (args.has("users")) {
      options.users = args.get_int<std::uint32_t>("users", 1, 1);
    }
    options.horizon_scale =
        args.get_double("horizon-scale", args.get_bool("quick", false)
                                             ? 0.1
                                             : 1.0);
    const auto plan_path = args.get_string("fault-plan", "");
    if (!plan_path.empty()) {
      options.fault_plan = read_file(plan_path, "fault plan");
    }
    const auto control_path = args.get_string("control-plan", "");
    if (!control_path.empty()) {
      options.control_plan = read_file(control_path, "control plan");
    }
    options.max_events = args.get_int<std::uint64_t>("max-events", 0);
    options.max_wall_seconds = args.get_double("max-wall-seconds", 0.0);
    options.metrics_out = args.get_string("metrics-out", "");
    options.metrics_window = args.get_double("metrics-window", 5000.0);
    const auto report_out = args.get_string("report-out", "");

    const pds::Scenario scenario = pds::parse_scenario(text);
    const std::uint64_t seed_used = options.seed.value_or(scenario.run.seed);

    std::vector<std::uint32_t> sweep_users;
    for (const double users : args.get_double_list("sweep-users", {})) {
      const auto n = pds::whole_number<std::uint32_t>(users, 1);
      if (!n) {
        throw std::invalid_argument(
            "--sweep-users: value must be an integer in [1, 4294967295]");
      }
      sweep_users.push_back(*n);
    }
    if (!sweep_users.empty()) {
      if (scenario.flows.empty()) {
        throw pds::UsageError(
            "--sweep-users needs a scenario with flows directives");
      }
      if (!options.metrics_out.empty() || !report_out.empty()) {
        throw pds::UsageError(
            "--metrics-out/--report-out are not available with "
            "--sweep-users");
      }
      pds::ThreadPool::set_global_workers(args.get_jobs());
      // One independent cell per load level; results land in grid order,
      // and the table is assembled after the barrier, so stdout is
      // byte-identical for any --jobs.
      const auto cells =
          pds::run_sweep(sweep_users.size(), [&](std::size_t i) {
            pds::ScenarioOptions cell = options;
            cell.users = sweep_users[i];
            return pds::run_scenario(scenario, cell);
          });
      pds::TablePrinter table({"users", "route", "class", "rpcs", "failed",
                               "retries", "fct p50", "fct p95", "fct p99",
                               "slo"});
      for (std::size_t i = 0; i < cells.size(); ++i) {
        for (const auto& fs : cells[i].flow_stats) {
          table.add_row({std::to_string(sweep_users[i]), fs.route,
                         std::to_string(pds::paper_class_label(fs.cls)),
                         std::to_string(fs.completed + fs.failed),
                         std::to_string(fs.failed),
                         std::to_string(fs.retries),
                         pds::TablePrinter::num(fs.fct_p50, 1),
                         pds::TablePrinter::num(fs.fct_p95, 1),
                         pds::TablePrinter::num(fs.fct_p99, 1),
                         pds::TablePrinter::num(fs.slo_attainment)});
        }
      }
      table.print(std::cout);
      return 0;
    }

    const auto report = pds::run_scenario(scenario, options);

    pds::TablePrinter routes({"route", "class", "packets",
                              "mean e2e delay", "p95"});
    for (const auto& rs : report.route_stats) {
      routes.add_row({rs.route,
                      std::to_string(pds::paper_class_label(rs.cls)),
                      std::to_string(rs.packets),
                      pds::TablePrinter::num(rs.mean_delay, 1),
                      pds::TablePrinter::num(rs.p95_delay, 1)});
    }
    routes.print(std::cout);

    std::cout << "\n";
    pds::TablePrinter links({"link", "utilization", "packets sent"});
    for (const auto& ls : report.link_stats) {
      links.add_row({ls.link, pds::TablePrinter::num(ls.utilization),
                     std::to_string(ls.packets_sent)});
    }
    links.print(std::cout);

    if (!report.flow_stats.empty()) {
      std::cout << "\n";
      print_flow_table(report, std::cout);
    }
    std::cout << "\ntotal route exits: " << report.total_exits << "\n";
    if (report.faulted) {
      std::cout << "fault plan: " << report.fault_episodes
                << " episode(s) completed, " << report.fault_drops
                << " packet(s) dropped during outages\n";
    }
    if (report.controlled) {
      std::cout << "control plan: " << report.control_episodes
                << " episode(s) completed (" << report.control_retunes
                << " retune, " << report.control_swaps << " swap, "
                << report.control_class_changes << " class, "
                << report.control_sheds << " shed); " << report.shed_drops
                << " shed + " << report.drain_drops << " drain drop(s)\n";
    }
    if (!options.metrics_out.empty()) {
      std::cout << "metrics: " << report.metrics_snapshots
                << " snapshots (window "
                << pds::TablePrinter::num(options.metrics_window, 0)
                << " tu) written to " << options.metrics_out << "\n";
    }
    if (!report_out.empty()) {
      pds::scenario_run_report(scenario, report, seed_used).write(report_out);
      std::cout << "run report written to " << report_out << "\n";
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
