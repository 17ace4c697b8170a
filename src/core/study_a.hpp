// Study A harness (Section 5): one congested link, N per-class Pareto
// sources, a pluggable scheduler, and the paper's measurement pipeline —
// long-term per-class delays, interval (timescale-tau) R_D series,
// per-packet departure records for the microscopic views, and an optional
// arrival trace for feasibility checking.
//
// Defaults reproduce the paper's setup: 4 classes, SDPs {1,2,4,8}, load
// split 40/30/20/10, Pareto(1.9) interarrivals, the 40/550/1500 B size law,
// and a link normalized so the mean packet transmission time is one p-unit
// (11.2 time units).
#pragma once

#include <cstdint>
#include <vector>

#include "core/trace.hpp"
#include "ctrl/controller.hpp"
#include "dsim/event_queue.hpp"
#include "dsim/time.hpp"
#include "obs/conformance.hpp"
#include "packet/size_law.hpp"
#include "sched/factory.hpp"
#include "stats/sawtooth.hpp"

namespace pds {

// Interarrival law of the per-class sources.
enum class ArrivalModel {
  kPareto,   // the paper's bursty default (shape = pareto_alpha)
  kPoisson,  // exponential gaps — matches the M/G/1 analytics in mg1.hpp
};

struct StudyAConfig {
  SchedulerKind scheduler = SchedulerKind::kWtp;
  std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
  std::vector<double> load_fractions{0.4, 0.3, 0.2, 0.1};
  double utilization = 0.95;
  ArrivalModel arrivals = ArrivalModel::kPareto;
  double pareto_alpha = 1.9;

  // Link normalization: capacity in bytes per time unit. With the paper's
  // size law the default gives a mean transmission time of one p-unit.
  double capacity = kStudyACapacity;

  double sim_time = 4.0e5;        // run length in time units
  double warmup_fraction = 0.1;   // leading fraction excluded from stats
  std::uint64_t seed = 1;

  // Exists only for perfbench/traced.cpp, which passes it to Simulator's
  // constructor; the kernel has one pending-event set and ignores it.
  EventQueueKind event_queue = EventQueueKind::kBinaryHeap;

  // Monitoring timescales (time units) for the Figure 3 metric; empty
  // disables interval monitoring.
  std::vector<double> monitor_taus;

  // Retains the arrival trace (for Eq. 7 feasibility checks). Memory scales
  // with packet count.
  bool record_trace = false;

  // Retains one record per departure (for the microscopic views).
  bool record_departures = false;

  // Per-class delay percentiles to report (e.g. {50, 95, 99}); empty
  // disables sample retention.
  std::vector<double> report_percentiles;

  // --- Observability (src/obs) ---
  // When non-empty, a MetricsRegistry snapshot writer appends one row per
  // metric to this file (.jsonl => JSON lines, else CSV) every
  // `metrics_window` time units: per-class backlog gauges, windowed delay
  // summaries, departure/arrival counters, and achieved delay-ratio gauges
  // (see docs/observability.md for the naming scheme).
  std::string metrics_out;
  SimTime metrics_window = 100.0 * kPUnit;

  // When non-empty, a PacketTracer samples `trace_sample` of the packets
  // (deterministically per seed) and writes their lifecycle events here.
  std::string trace_out;
  double trace_sample = 0.01;

  // Attaches a SimProfiler to the kernel; the rendered per-category report
  // lands in StudyAResult::profile_report.
  bool profile = false;

  // When non-empty, a SpanTracer writes a Chrome trace-event JSON timeline
  // here (chrome://tracing / Perfetto): kernel event batches by label plus
  // one span per fault episode, all on the simulation clock — byte-identical
  // across runs. Composes with `profile` through a SimMonitorMux.
  std::string spans_out;

  // Live DDP conformance monitoring (obs/conformance.hpp): every
  // `conformance_tau` time units (0 disables) the window's adjacent-class
  // delay ratios are checked against the configured SDPs; windows whose
  // relative error exceeds `conformance_tolerance` become violation events.
  // Monitoring starts after warmup. A pair only counts in windows where both
  // classes have `conformance_min_samples` departures.
  SimTime conformance_tau = 0.0;
  double conformance_tolerance = 0.25;
  std::uint64_t conformance_min_samples = 10;
  // When non-empty (requires conformance_tau > 0), violations stream to this
  // JSONL file as they are detected.
  std::string conformance_out;

  // When non-empty, a unified schema-versioned RunReport (obs/report.hpp)
  // aggregating run parameters, result summary, metrics totals, profiler
  // categories, conformance state, and fault accounting is written here.
  // `report_volatile` opts the wall-clock section in (profiler wall times);
  // default reports are byte-identical across runs and --jobs.
  std::string report_out;
  bool report_volatile = false;

  // --- Robustness (src/fault, exp/supervisor) ---
  // Fault plan text (fault_plan.hpp grammar). When non-empty, a
  // FaultInjector drives the scripted episodes against the congested link,
  // attached under the target name "link" (so plans say e.g.
  // "down link at=1000 for=500 mode=hold"). Episode boundaries are ordinary
  // simulator events and loss bursts are seeded from the plan, so a faulted
  // run keeps the byte-identical determinism contract.
  std::string fault_plan;

  // --- Runtime control plane (src/ctrl) ---
  // Control plan text (ctrl/control_plan.hpp grammar). When non-empty, a
  // ControlInjector drives the scripted reconfigurations against the
  // congested link, attached under the target name "link" (so plans say
  // e.g. "retune link at=1000 w=1,2,4,8" or "swap link at=2000 sched=pad").
  // Every episode boundary is an ordinary simulator event; a controlled run
  // keeps the byte-identical determinism contract.
  std::string control_plan;

  // Adaptive differentiation (ctrl/controller.hpp): a feedback loop from
  // the live Eq. 2 conformance errors to the scheduler's weights (or HPD's
  // g). Requires conformance_tau > 0 when enabled — the monitor is the
  // controller's sensor.
  ControllerConfig controller;

  // Watchdog limits for the run (0 = unlimited). max_events trips
  // deterministically; max_wall_seconds is a hang backstop. A trip throws
  // WatchdogError carrying a diagnostic snapshot with per-class backlogs.
  std::uint64_t max_events = 0;
  double max_wall_seconds = 0.0;

  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(sdp.size());
  }
  SimTime warmup_end() const { return sim_time * warmup_fraction; }

  void validate() const;
};

struct DepartureRecord {
  SimTime time;    // departure (end of transmission)
  ClassId cls;
  double delay;    // queueing delay at this hop (time units)
};

struct StudyAResult {
  std::vector<double> mean_delays;            // per class, time units
  std::vector<std::uint64_t> departures;      // per class, after warmup
  std::vector<double> ratios;                 // d_i / d_{i+1}
  double measured_utilization = 0.0;          // busy time / sim time
  std::uint64_t total_departures = 0;

  // Per requested tau, in the order given: the R_D values of all intervals.
  std::vector<std::vector<double>> rd_per_tau;

  std::vector<ArrivalRecord> trace;           // iff record_trace
  std::vector<DepartureRecord> per_packet;    // iff record_departures

  // delay_percentiles[cls][k] for report_percentiles[k] (time units);
  // empty unless requested.
  std::vector<std::vector<double>> delay_percentiles;
  std::vector<double> sawtooth_index;         // per class
  std::uint64_t sawtooth_collapses = 0;
  std::vector<double> jitter;                 // per class (RFC 3550 style)

  // Fault accounting (iff config.fault_plan): episode instances completed
  // and packets dropped by link-down episodes in drop mode. Burst-loss drops
  // need a buffered link (Link::burst_drops()) and do not appear here
  // (Study A's link is lossless apart from faults).
  std::uint64_t fault_episodes = 0;
  std::uint64_t fault_drops = 0;

  // Control-plane accounting (iff config.control_plan): episode instances
  // completed plus per-kind application counts, and arrivals dropped by
  // class drains / the overload shed guard.
  std::uint64_t control_episodes = 0;
  std::uint64_t control_retunes = 0;
  std::uint64_t control_swaps = 0;
  std::uint64_t control_class_changes = 0;
  std::uint64_t control_sheds = 0;
  std::uint64_t shed_drops = 0;
  std::uint64_t drain_drops = 0;

  // Controller accounting (iff config.controller.enabled()): ticks taken,
  // knob updates applied, and the final knob state (weights for kWeights,
  // g for kHpdG; see ctrl/controller.hpp).
  std::uint64_t controller_ticks = 0;
  std::uint64_t controller_updates = 0;
  std::vector<double> controller_weights;
  double controller_g = 0.0;

  // Rendered SimProfiler tables (iff config.profile).
  std::string profile_report;
  // Lifecycle records actually traced (iff config.trace_out was set; the
  // same records are in the file).
  std::uint64_t trace_records = 0;
  std::uint64_t metrics_snapshots = 0;        // iff config.metrics_out

  // DDP conformance (iff config.conformance_tau > 0): the run-end summary
  // and every violation, in window order.
  ConformanceSummary conformance;
  std::vector<ConformanceViolation> violations;

  std::uint64_t span_count = 0;       // iff config.spans_out
  std::uint64_t executed_events = 0;  // kernel events over the whole run
};

StudyAResult run_study_a(const StudyAConfig& config);

// Runs `seeds` independent replications (seed, seed+1, ...) and returns the
// per-pair ratios averaged across runs, the paper's methodology for
// Figures 1 and 2 ("averaging over ten simulation runs with different
// seeds" — the Pareto tail rules out confidence intervals). Replications
// are embarrassingly parallel: they execute on the process-wide
// work-stealing pool (exp/thread_pool.hpp, sized by --jobs / PDS_JOBS);
// every Simulator and all per-run state is thread-local, and results are
// identical to the sequential order. Called from inside a sweep cell the
// loop runs inline on the calling worker (nested-fan-out rule).
std::vector<double> average_ratios_over_seeds(StudyAConfig config,
                                              std::uint32_t seeds);

// Parallel multi-seed runner returning every replication's full result,
// ordered by seed offset.
std::vector<StudyAResult> run_study_a_replications(const StudyAConfig& config,
                                                   std::uint32_t seeds);

}  // namespace pds
