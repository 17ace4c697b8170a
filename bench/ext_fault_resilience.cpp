// Extension — fault resilience of proportional delay differentiation.
//
// The paper's Section 5 results assume a healthy link. This bench asks what
// happens to the differentiation contract when the link misbehaves: a
// scripted fault plan degrades capacity to 50%, stalls the scheduler, and
// takes the link down (holding arrivals) in turn, and we measure the Eq. 2
// short-timescale ratio error — the mean over adjacent class pairs of
// |(d_i/d_{i+1}) / (s_{i+1}/s_i)^-1 ... normalized achieved/target - 1| —
// in a window before, during, and after each episode, for WTP, BPR and PAD.
//
// Expected shape: WTP re-converges to the target ratios within a window
// after each episode (its waiting-time priorities self-correct); BPR's
// rate-based weights are slower to recover from the backlog flush; during a
// hold-mode outage no packets depart, so the "during" column is undefined
// for the down episode and the damage shows up in the "after" window
// instead.
//
// Every (scheduler, seed) cell is an independent simulation under the same
// fault plan; cells run on the experiment engine via run_supervised_sweep,
// so a pathological cell would be reported, not fatal, and the assembled
// table is byte-identical for any --jobs (fault boundaries are scripted
// simulator events; see docs/robustness.md).
//
// Knobs: --sim-time (time units), --seeds, --quick, --jobs. Telemetry:
// --spans-out writes the sweep's span timeline (add --spans-wall for the
// wall-clock worker/shard view), --conformance-tau enables per-cell DDP
// conformance monitoring, --report-out writes the unified run report
// (--report-volatile opts the schedule-dependent pool section in). Default
// span/report output is byte-identical for any --jobs.
#include <array>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/study_a.hpp"
#include "exp/supervisor.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// The scripted fault sequence, scaled to the run length: capacity degraded
// to 50% for 6% of the run at 30%, a scheduler stall at 50%, and a
// hold-mode outage for 2% of the run at 70%.
std::string build_plan(double sim_time) {
  std::ostringstream plan;
  plan << "seed 7\n"
       << "degrade link at=" << 0.30 * sim_time << " for=" << 0.06 * sim_time
       << " factor=0.5\n"
       << "stall link at=" << 0.50 * sim_time << " for=" << 0.005 * sim_time
       << "\n"
       << "down link at=" << 0.70 * sim_time << " for=" << 0.02 * sim_time
       << " mode=hold\n";
  return plan.str();
}

// Per cell: for each episode, the mean adjacent-pair ratio error in the
// before/during/after windows (NaN where a class pair saw no departures).
struct CellStats {
  std::vector<std::array<double, 3>> err;
  std::uint64_t fault_drops = 0;
  std::uint64_t episodes = 0;
  // Per-cell DDP conformance summary (iff --conformance-tau).
  std::uint64_t conf_windows = 0;
  std::uint64_t conf_violations = 0;
  std::uint64_t conf_during_faults = 0;
  double conf_max_error = 0.0;
};

// Mean over adjacent pairs of |achieved/target - 1| for departures in
// [t0, t1); NaN when any class pair lacks samples.
double ratio_error(const std::vector<pds::DepartureRecord>& packets,
                   const std::vector<double>& sdp, double t0, double t1) {
  std::vector<double> sum(sdp.size(), 0.0);
  std::vector<std::uint64_t> count(sdp.size(), 0);
  for (const auto& rec : packets) {
    if (rec.time < t0 || rec.time >= t1) continue;
    sum[rec.cls] += rec.delay;
    ++count[rec.cls];
  }
  double acc = 0.0;
  for (std::size_t c = 0; c + 1 < sdp.size(); ++c) {
    if (count[c] == 0 || count[c + 1] == 0 || sum[c + 1] == 0.0) return kNan;
    const double achieved =
        (sum[c] / static_cast<double>(count[c])) /
        (sum[c + 1] / static_cast<double>(count[c + 1]));
    const double target = sdp[c + 1] / sdp[c];
    acc += std::abs(achieved / target - 1.0);
  }
  return acc / static_cast<double>(sdp.size() - 1);
}

std::string cell_text(double v) {
  return std::isnan(v) ? "-" : pds::TablePrinter::num(v, 3);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seeds", "quick", "jobs", "spans-out",
                        "spans-wall", "conformance-tau", "report-out",
                        "report-volatile"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 1.2e5 : 4.0e5);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 2 : 5, 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());
    const auto spans_out = args.get_string("spans-out", "");
    const bool spans_wall = args.get_bool("spans-wall", false);
    const double conformance_tau = args.get_double("conformance-tau", 0.0);
    const auto report_out = args.get_string("report-out", "");
    const bool report_volatile = args.get_bool("report-volatile", false);

    const std::string plan_text = build_plan(sim_time);
    const auto plan = pds::parse_fault_plan(plan_text);
    const std::vector<pds::SchedulerKind> kinds{pds::SchedulerKind::kWtp,
                                                pds::SchedulerKind::kBpr,
                                                pds::SchedulerKind::kPad};
    const std::vector<const char*> names{"WTP", "BPR", "PAD"};

    std::cout << "=== Extension: ratio error under link faults ===\n"
              << "sim-time " << sim_time << " tu, " << seeds
              << " seed(s); rho 0.95, SDPs 1,2,4,8; plan:\n"
              << plan_text;

    // One cell per (scheduler, seed); each runs the full fault plan and
    // reduces its departure records to per-episode phase errors.
    const pds::SweepGrid grid({kinds.size(), seeds});
    pds::SweepTelemetry telemetry;
    pds::SupervisorOptions sup_opts;
    if (!spans_out.empty() || !report_out.empty()) {
      sup_opts.telemetry = &telemetry;
    }
    const auto sup = pds::run_supervised_sweep(
        grid.size(), sup_opts,
        [&](std::size_t i) {
          const auto at = grid.coords(i);
          pds::StudyAConfig config;
          config.scheduler = kinds[at[0]];
          config.sim_time = sim_time;
          config.seed = 1 + at[1];
          config.record_departures = true;
          config.fault_plan = plan_text;
          config.conformance_tau = conformance_tau;
          // Deterministic backstop: a healthy cell at this scale stays far
          // below the budget; a livelocked one is killed and reported.
          config.max_events = 500000000;
          const auto result = pds::run_study_a(config);

          CellStats stats;
          stats.fault_drops = result.fault_drops;
          stats.episodes = result.fault_episodes;
          stats.conf_windows = result.conformance.windows;
          stats.conf_violations = result.conformance.violations;
          stats.conf_during_faults = result.conformance.violations_during_faults;
          stats.conf_max_error = result.conformance.max_error;
          for (const auto& ep : plan.episodes) {
            const double window = ep.duration;
            stats.err.push_back(
                {ratio_error(result.per_packet, config.sdp,
                             ep.at - window, ep.at),
                 ratio_error(result.per_packet, config.sdp, ep.at, ep.end()),
                 ratio_error(result.per_packet, config.sdp, ep.end(),
                             ep.end() + window)});
          }
          return stats;
        });

    pds::TablePrinter table({"scheduler", "episode", "err before",
                             "err during", "err after"});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (std::size_t e = 0; e < plan.episodes.size(); ++e) {
        // Average each phase over the seeds that measured it.
        std::array<double, 3> acc{0.0, 0.0, 0.0};
        std::array<std::uint32_t, 3> defined{0, 0, 0};
        for (std::uint32_t s = 0; s < seeds; ++s) {
          const auto& cell = sup.cells[grid.flat({k, s})];
          if (cell.err.empty()) continue;  // failed cell
          for (int p = 0; p < 3; ++p) {
            if (std::isnan(cell.err[e][p])) continue;
            acc[p] += cell.err[e][p];
            ++defined[p];
          }
        }
        std::array<double, 3> mean{kNan, kNan, kNan};
        for (int p = 0; p < 3; ++p) {
          if (defined[p] > 0) mean[p] = acc[p] / defined[p];
        }
        table.add_row({names[k], pds::to_string(plan.episodes[e].kind),
                       cell_text(mean[0]), cell_text(mean[1]),
                       cell_text(mean[2])});
      }
    }
    table.print(std::cout);

    std::uint64_t drops = 0;
    for (const auto& cell : sup.cells) drops += cell.fault_drops;
    std::cout << "\n" << grid.size() - sup.failures.size() << "/"
              << grid.size() << " cells completed, " << drops
              << " fault drop(s) total (hold mode: expected 0)\n";
    for (const auto& f : sup.failures) {
      std::cout << "cell " << f.index << " FAILED after " << f.attempts
                << " attempt(s): " << f.error << "\n";
    }
    if (conformance_tau > 0.0) {
      std::uint64_t violations = 0;
      std::uint64_t during = 0;
      for (const auto& cell : sup.cells) {
        violations += cell.conf_violations;
        during += cell.conf_during_faults;
      }
      std::cout << "conformance (tau " << conformance_tau << " tu): "
                << violations << " violation(s) across all cells, " << during
                << " during fault episodes\n";
    }

    if (!spans_out.empty()) {
      pds::SpanTracer spans(spans_wall ? pds::SpanMode::kWall
                                       : pds::SpanMode::kDeterministic);
      spans.add_sweep(telemetry);
      spans.write(spans_out);
      std::cout << "spans: " << spans.span_count() << " span(s) written to "
                << spans_out
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }

    if (!report_out.empty()) {
      pds::RunReport report("supervised_sweep");
      report.set_section("run",
                         pds::Json::object()
                             .set("bench", "ext_fault_resilience")
                             .set("sim_time", sim_time)
                             .set("seeds", seeds)
                             .set("cells", grid.size())
                             .set("fault_plan", plan_text));
      report.set_section(
          "supervisor",
          pds::Json::object()
              .set("cells", pds::sweep_cells_json(telemetry))
              .set("failures", pds::failures_json(sup.failures)));
      if (conformance_tau > 0.0) {
        pds::Json per_cell = pds::Json::array();
        for (std::size_t i = 0; i < sup.cells.size(); ++i) {
          const auto& cell = sup.cells[i];
          per_cell.push(pds::Json::object()
                            .set("index", i)
                            .set("windows", cell.conf_windows)
                            .set("violations", cell.conf_violations)
                            .set("during_faults", cell.conf_during_faults)
                            .set("max_error", cell.conf_max_error));
        }
        report.set_section(
            "conformance",
            pds::Json::object().set("tau", conformance_tau)
                .set("cells", std::move(per_cell)));
      }
      if (report_volatile) {
        report.set_section("volatile", pds::sweep_volatile_json(telemetry));
      }
      report.write(report_out);
      std::cout << "run report written to " << report_out << "\n";
    }

    std::cout << "\nReading: 'err' is the mean over adjacent class pairs of\n"
                 "|achieved ratio / target - 1| (0 = perfect proportional\n"
                 "differentiation); '-' means a window with no departures in\n"
                 "some class (e.g. during a hold-mode outage).\n";

    return sup.failures.empty() ? 0 : 1;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
