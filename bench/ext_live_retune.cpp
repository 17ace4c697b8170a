// Extension — live reconfiguration and overload shedding (src/ctrl/).
//
// The paper treats the SDPs as fixed for a run. This bench asks how fast
// each scheduler re-converges to a NEW differentiation target pushed into
// the running simulation by the control plane: a scripted plan widens the
// SDPs from {1,2,4,8} to {1,3,9,27} mid-run, tunes them back, and finally
// swaps the scheduler to HPD with the backlog handed across live. For each
// boundary we measure the Eq. 2 ratio error — mean over adjacent pairs of
// |achieved/target - 1|, scored against the SDP vector in force in that
// window — before the change, in the transient window right after it, and
// in a settled window one transient later.
//
// Expected shape: WTP and HPD track the retune within the transient window
// (waiting-time priorities re-rank immediately); PAD drags its long-run
// average-delay history into the new regime so its transient error is
// larger; BPR re-seeds its virtual service on the swap boundary and
// recovers by the settled window. The swap row shows that a mid-run
// scheduler replacement costs at most a transient, not the run.
//
// The second table is the overload guard: the link degrades to 45% capacity
// (effective rho >> 1) with and without a shed window covering the episode.
// With the shed active the two lowest classes are dropped at the watermark
// and the protected classes keep bounded delays; without it the backlog —
// and every class's delay — grows for the whole episode.
//
// Every cell is an independent simulation on the experiment engine
// (run_supervised_sweep): a pathological cell is reported, not fatal, and
// the tables are byte-identical for any --jobs (control boundaries are
// scripted simulator events; see docs/control_plane.md).
//
// Knobs: --sim-time (time units), --seeds, --quick, --jobs.
#include <array>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/study_a.hpp"
#include "exp/supervisor.hpp"
#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const std::vector<double> kBaseSdp{1.0, 2.0, 4.0, 8.0};
const std::vector<double> kWideSdp{1.0, 3.0, 9.0, 27.0};

// One measured control boundary: the instant, the SDP targets in force on
// each side, and a label for the table.
struct Boundary {
  const char* label;
  double at;
  const std::vector<double>* before_sdp;
  const std::vector<double>* after_sdp;
};

// The reconfiguration schedule, scaled to the run length: widen the SDPs at
// 30%, tune them back at 50%, swap the scheduler to HPD at 70%.
std::string build_plan(double sim_time) {
  std::ostringstream plan;
  plan << "retune link at=" << 0.30 * sim_time << " w=1,3,9,27\n"
       << "retune link at=" << 0.50 * sim_time << " w=1,2,4,8\n"
       << "swap link at=" << 0.70 * sim_time << " sched=hpd\n";
  return plan.str();
}

std::vector<Boundary> boundaries(double sim_time) {
  return {{"retune 1,3,9,27", 0.30 * sim_time, &kBaseSdp, &kWideSdp},
          {"retune 1,2,4,8", 0.50 * sim_time, &kWideSdp, &kBaseSdp},
          {"swap -> hpd", 0.70 * sim_time, &kBaseSdp, &kBaseSdp}};
}

// Mean over adjacent pairs of |achieved/target - 1| for departures in
// [t0, t1) against `sdp`; NaN when any class pair lacks samples.
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

// Per-class mean delay and departures inside [t0, t1).
struct WindowStats {
  std::vector<double> mean_delay;
  std::vector<std::uint64_t> departures;
};

WindowStats window_stats(const std::vector<pds::DepartureRecord>& packets,
                         std::size_t classes, double t0, double t1) {
  WindowStats w;
  w.mean_delay.assign(classes, 0.0);
  w.departures.assign(classes, 0);
  for (const auto& rec : packets) {
    if (rec.time < t0 || rec.time >= t1) continue;
    w.mean_delay[rec.cls] += rec.delay;
    ++w.departures[rec.cls];
  }
  for (std::size_t c = 0; c < classes; ++c) {
    if (w.departures[c] > 0) {
      w.mean_delay[c] /= static_cast<double>(w.departures[c]);
    } else {
      w.mean_delay[c] = kNan;
    }
  }
  return w;
}

struct RetuneCell {
  std::vector<std::array<double, 3>> err;  // per boundary: before/trans/settled
  std::uint64_t episodes = 0;
};

struct ShedCell {
  WindowStats during;
  std::uint64_t shed_drops = 0;
  std::uint64_t executed_events = 0;
};

std::string cell_text(double v) {
  return std::isnan(v) ? "-" : pds::TablePrinter::num(v, 3);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"sim-time", "seeds", "quick", "jobs"});
    const bool quick = args.get_bool("quick", false);
    const double sim_time =
        args.get_double("sim-time", quick ? 1.2e5 : 4.0e5);
    const auto seeds = args.get_int<std::uint32_t>("seeds", quick ? 2 : 5, 1);
    pds::ThreadPool::set_global_workers(args.get_jobs());

    const std::string plan_text = build_plan(sim_time);
    const auto bounds = boundaries(sim_time);
    const double window = 0.06 * sim_time;  // transient length
    const std::vector<pds::SchedulerKind> kinds{
        pds::SchedulerKind::kWtp, pds::SchedulerKind::kBpr,
        pds::SchedulerKind::kPad, pds::SchedulerKind::kHpd};
    const std::vector<const char*> names{"WTP", "BPR", "PAD", "HPD"};

    std::cout << "=== Extension: ratio error across live retunes ===\n"
              << "sim-time " << sim_time << " tu, " << seeds
              << " seed(s); rho 0.95, SDPs 1,2,4,8; plan:\n"
              << plan_text;

    // --- Part 1: retune/swap recovery, one cell per (scheduler, seed) ----
    const pds::SweepGrid grid({kinds.size(), seeds});
    const auto sup = pds::run_supervised_sweep(
        grid.size(), pds::SupervisorOptions{},
        [&](std::size_t i) {
          const auto at = grid.coords(i);
          pds::StudyAConfig config;
          config.scheduler = kinds[at[0]];
          config.sim_time = sim_time;
          config.seed = 1 + at[1];
          config.record_departures = true;
          config.control_plan = plan_text;
          config.max_events = 500000000;
          const auto result = pds::run_study_a(config);

          RetuneCell cell;
          cell.episodes = result.control_episodes;
          for (const auto& b : bounds) {
            cell.err.push_back(
                {ratio_error(result.per_packet, *b.before_sdp, b.at - window,
                             b.at),
                 ratio_error(result.per_packet, *b.after_sdp, b.at,
                             b.at + window),
                 ratio_error(result.per_packet, *b.after_sdp, b.at + window,
                             b.at + 2.0 * window)});
          }
          return cell;
        });

    pds::TablePrinter table({"scheduler", "boundary", "err before",
                             "err transient", "err settled"});
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      for (std::size_t e = 0; e < bounds.size(); ++e) {
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
        table.add_row({names[k], bounds[e].label, cell_text(mean[0]),
                       cell_text(mean[1]), cell_text(mean[2])});
      }
    }
    table.print(std::cout);
    std::cout << "\n" << grid.size() - sup.failures.size() << "/"
              << grid.size() << " retune cells completed\n";
    for (const auto& f : sup.failures) {
      std::cout << "cell " << f.index << " FAILED after " << f.attempts
                << " attempt(s): " << f.error << "\n";
    }

    // --- Part 2: overload shed guard, (shed off/on) x seeds --------------
    // The link degrades to 45% capacity for 30% of the run (effective rho
    // ~2.1); the shed variant covers the episode with a watermark guard
    // protecting the top two classes.
    const double ov_at = 0.30 * sim_time;
    const double ov_for = 0.30 * sim_time;
    std::ostringstream fault_plan;
    fault_plan << "degrade link at=" << ov_at << " for=" << ov_for
               << " factor=0.45\n";
    std::ostringstream shed_plan;
    shed_plan << "shed link at=" << ov_at << " for=" << ov_for
              << " watermark=" << (quick ? 200 : 400) << " classes=2\n";

    const pds::SweepGrid ov_grid({2, seeds});
    const auto ov = pds::run_supervised_sweep(
        ov_grid.size(), pds::SupervisorOptions{},
        [&](std::size_t i) {
          const auto at = ov_grid.coords(i);
          pds::StudyAConfig config;
          config.scheduler = pds::SchedulerKind::kWtp;
          config.sim_time = sim_time;
          config.seed = 1 + at[1];
          config.record_departures = true;
          config.fault_plan = fault_plan.str();
          if (at[0] == 1) config.control_plan = shed_plan.str();
          config.max_events = 500000000;
          const auto result = pds::run_study_a(config);

          ShedCell cell;
          cell.during = window_stats(result.per_packet, kBaseSdp.size(),
                                     ov_at, ov_at + ov_for);
          cell.shed_drops = result.shed_drops;
          cell.executed_events = result.executed_events;
          return cell;
        });

    pds::TablePrinter ov_table({"mode", "class", "delay during", "departures",
                                "shed drops"});
    const char* modes[] = {"no shed", "shed c0,c1"};
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t c = 0; c < kBaseSdp.size(); ++c) {
        double delay = 0.0;
        std::uint64_t dep = 0, drops = 0;
        std::uint32_t defined = 0;
        for (std::uint32_t s = 0; s < seeds; ++s) {
          const auto& cell = ov.cells[ov_grid.flat({m, s})];
          if (cell.during.mean_delay.empty()) continue;
          if (!std::isnan(cell.during.mean_delay[c])) {
            delay += cell.during.mean_delay[c];
            ++defined;
          }
          dep += cell.during.departures[c];
          drops += cell.shed_drops;
        }
        ov_table.add_row(
            {modes[m], "c" + std::to_string(c),
             cell_text(defined > 0 ? delay / defined : kNan),
             pds::TablePrinter::num(static_cast<double>(dep), 0),
             c == 0 ? pds::TablePrinter::num(static_cast<double>(drops), 0)
                    : ""});
      }
    }
    std::cout << "\n=== Overload: degrade to 45% capacity, rho ~2.1 ===\n"
              << fault_plan.str();
    ov_table.print(std::cout);
    std::cout << "\n" << ov_grid.size() - ov.failures.size() << "/"
              << ov_grid.size() << " overload cells completed\n";
    for (const auto& f : ov.failures) {
      std::cout << "cell " << f.index << " FAILED after " << f.attempts
                << " attempt(s): " << f.error << "\n";
    }

    std::cout << "\nReading: 'err' is the mean over adjacent class pairs of\n"
                 "|achieved ratio / target - 1| against the SDP vector in\n"
                 "force in that window (0 = perfect). The overload table\n"
                 "shows the shed guard trading class-0/1 arrivals for\n"
                 "bounded protected-class delays during the episode.\n";

    return sup.failures.empty() && ov.failures.empty() ? 0 : 1;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
