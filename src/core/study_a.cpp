#include "core/study_a.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "exp/supervisor.hpp"
#include "exp/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "sched/link.hpp"
#include "stats/delay_stats.hpp"
#include "stats/interval_monitor.hpp"
#include "stats/jitter.hpp"
#include "stats/percentile.hpp"
#include "traffic/calibration.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"

namespace pds {

void StudyAConfig::validate() const {
  SchedulerConfig sc{sdp, capacity, 0.875, 1500.0};
  sc.validate(/*needs_capacity=*/true);
  PDS_CHECK(load_fractions.size() == sdp.size(),
            "load fractions / SDP size mismatch");
  PDS_CHECK(utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0,1) for a stable lossless system");
  PDS_CHECK(pareto_alpha > 1.0, "Pareto shape must exceed 1 (finite mean)");
  PDS_CHECK(sim_time > 0.0, "sim_time must be positive");
  PDS_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
            "warmup fraction must be in [0,1)");
  for (const double tau : monitor_taus) {
    PDS_CHECK(tau > 0.0, "monitoring timescale must be positive");
  }
  for (const double p : report_percentiles) {
    PDS_CHECK(p >= 0.0 && p <= 100.0, "percentile outside [0,100]");
  }
  if (!metrics_out.empty()) {
    PDS_CHECK(metrics_window > 0.0, "metrics window must be positive");
  }
  PDS_CHECK(trace_sample >= 0.0 && trace_sample <= 1.0,
            "trace sample rate must be in [0,1]");
  PDS_CHECK(max_wall_seconds >= 0.0, "watchdog wall deadline must be >= 0");
  PDS_CHECK(conformance_tau >= 0.0, "conformance tau must be >= 0");
  if (conformance_tau > 0.0) {
    PDS_CHECK(conformance_tolerance > 0.0,
              "conformance tolerance must be positive");
  }
  PDS_CHECK(conformance_out.empty() || conformance_tau > 0.0,
            "conformance output requires a conformance tau");
  controller.validate();
  PDS_CHECK(!controller.enabled() || conformance_tau > 0.0,
            "controller requires conformance_tau > 0 (its error sensor)");
  PDS_CHECK(controller.mode != ControllerMode::kWeights ||
                has_weights(scheduler),
            "controller=weights needs a scheduler with weights, got " +
                to_string(scheduler));
}

StudyAResult run_study_a(const StudyAConfig& config) {
  config.validate();
  const std::uint32_t n = config.num_classes();
  const SimTime warmup = config.warmup_end();

  Simulator sim;
  PacketIdAllocator ids;
  Rng master(config.seed);

  SchedulerConfig sched_config;
  sched_config.sdp = config.sdp;
  sched_config.link_capacity = config.capacity;
  auto scheduler = make_scheduler(config.scheduler, sched_config);

  // Optional observability session (metrics registry + windowed snapshot
  // writer, sampled lifecycle tracer, kernel profiler). All of it is
  // null-object by default: a run without obs flags takes none of these
  // branches.
  const auto cls_name = [](ClassId c) {
    return "c" + std::to_string(paper_class_label(c));
  };
  const auto ratio_name = [&](ClassId c) {
    return "delay_ratio." + cls_name(c) + "_" + cls_name(c + 1);
  };
  std::unique_ptr<MetricsRegistry> registry;
  std::vector<Summary*> delay_summaries;
  std::vector<Counter*> arrival_counters;
  std::vector<Counter*> departure_counters;
  std::unique_ptr<MetricsSnapshotWriter> writer;
  if (!config.metrics_out.empty()) {
    registry = std::make_unique<MetricsRegistry>();
    for (ClassId c = 0; c < n; ++c) {
      delay_summaries.push_back(&registry->summary("delay." + cls_name(c)));
      arrival_counters.push_back(
          &registry->counter("arrivals." + cls_name(c)));
      departure_counters.push_back(
          &registry->counter("departures." + cls_name(c)));
      registry->gauge("backlog." + cls_name(c) + ".pkts");
      registry->gauge("backlog." + cls_name(c) + ".bytes");
      if (c + 1 < n) registry->gauge(ratio_name(c));
    }
    // Pull-style gauges refreshed just before each snapshot: instantaneous
    // per-class backlog off the scheduler, and the achieved short-timescale
    // delay ratios (window-mean d_i / d_{i+1}, Eq. 2's runtime analogue;
    // 0 when a window lacks departures in either class).
    auto refresh = [reg = registry.get(), sched = scheduler.get(), n,
                    cls_name, ratio_name](SimTime) {
      for (ClassId c = 0; c < n; ++c) {
        reg->gauge("backlog." + cls_name(c) + ".pkts")
            .set(static_cast<double>(sched->backlog_packets(c)));
        reg->gauge("backlog." + cls_name(c) + ".bytes")
            .set(static_cast<double>(sched->backlog_bytes(c)));
      }
      for (ClassId c = 0; c + 1 < n; ++c) {
        const RunningStats& lo = reg->summary("delay." + cls_name(c)).window();
        const RunningStats& hi =
            reg->summary("delay." + cls_name(c + 1)).window();
        const bool defined =
            lo.count() > 0 && hi.count() > 0 && hi.mean() > 0.0;
        reg->gauge(ratio_name(c)).set(defined ? lo.mean() / hi.mean() : 0.0);
      }
    };
    writer = std::make_unique<MetricsSnapshotWriter>(
        sim, *registry, config.metrics_out, config.metrics_window,
        std::move(refresh));
  }
  std::unique_ptr<PacketTracer> tracer;
  if (!config.trace_out.empty()) {
    tracer = std::make_unique<PacketTracer>(config.trace_sample, config.seed);
  }
  std::unique_ptr<SimProfiler> profiler;
  if (config.profile) profiler = std::make_unique<SimProfiler>();
  std::unique_ptr<SpanTracer> spans;
  std::unique_ptr<KernelSpanMonitor> span_monitor;
  if (!config.spans_out.empty()) {
    spans = std::make_unique<SpanTracer>(SpanMode::kDeterministic);
    span_monitor = std::make_unique<KernelSpanMonitor>(spans->buffer());
  }
  // The kernel holds one monitor slot; mux only when both observers want it.
  SimMonitorMux monitor_mux;
  if (profiler && span_monitor) {
    monitor_mux.add(profiler.get());
    monitor_mux.add(span_monitor.get());
    sim.set_monitor(&monitor_mux);
  } else if (profiler) {
    sim.set_monitor(profiler.get());
  } else if (span_monitor) {
    sim.set_monitor(span_monitor.get());
  }

  // Live DDP conformance monitoring, fed from the departure callback.
  std::unique_ptr<ConformanceMonitor> conformance;
  std::unique_ptr<ViolationLog> violation_log;
  if (config.conformance_tau > 0.0) {
    ConformanceOptions copts;
    copts.tau = config.conformance_tau;
    copts.start = warmup;
    copts.tolerance = config.conformance_tolerance;
    copts.min_samples = config.conformance_min_samples;
    conformance = std::make_unique<ConformanceMonitor>(config.sdp, copts);
    conformance->set_class_namer(cls_name);
    if (registry) conformance->bind_metrics(*registry);
    if (!config.conformance_out.empty()) {
      violation_log =
          std::make_unique<ViolationLog>(config.conformance_out, cls_name);
      conformance->set_violation_sink(
          [log = violation_log.get()](const ConformanceViolation& v) {
            log->write(v);
          });
    }
  }

  StudyAResult result;
  ClassDelayStats delays(n, warmup);
  SawtoothIndex sawtooth(n);
  JitterEstimator jitter(n);
  std::vector<IntervalDelayMonitor> monitors;
  monitors.reserve(config.monitor_taus.size());
  for (const double tau : config.monitor_taus) {
    monitors.emplace_back(n, tau, warmup);
  }

  std::vector<SampleSet> retained(
      config.report_percentiles.empty() ? 0 : n);
  Link link(sim, *scheduler, config.capacity,
            [&](Packet&& p, SimTime wait, SimTime now) {
              delays.record(p.cls, wait, now);
              for (auto& m : monitors) m.record(p.cls, wait, now);
              if (conformance) conformance->record(p.cls, wait, now);
              if (registry) {
                delay_summaries[p.cls]->observe(wait);
                departure_counters[p.cls]->inc();
              }
              if (now >= warmup) {
                ++result.total_departures;
                sawtooth.record(p.cls, wait);
                jitter.record(p.cls, wait);
                if (config.record_departures) {
                  result.per_packet.push_back(
                      DepartureRecord{now, p.cls, wait});
                }
                if (!retained.empty()) retained[p.cls].add(wait);
              }
            });

  const DiscreteDist size_law = paper_size_law();
  const auto interarrivals = class_mean_interarrivals(
      config.utilization, config.load_fractions, config.capacity,
      size_law.mean());

  const auto make_gaps = [&](double mean) {
    return config.arrivals == ArrivalModel::kPareto
               ? pareto_gaps(config.pareto_alpha, mean)
               : exponential_gaps(mean);
  };

  std::vector<std::unique_ptr<RenewalSource>> sources;
  sources.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    sources.push_back(std::make_unique<RenewalSource>(
        sim, ids, c, make_gaps(interarrivals[c]),
        law_size(size_law), master.split(), [&](Packet p) {
          if (config.record_trace) {
            result.trace.push_back(
                ArrivalRecord{sim.now(), p.cls, p.size_bytes});
          }
          if (registry) arrival_counters[p.cls]->inc();
          link.arrive(std::move(p));
        }));
    sources.back()->start(kTimeZero);
  }
  if (tracer) link.set_probe(tracer.get());

  std::unique_ptr<FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    injector = std::make_unique<FaultInjector>(
        sim, parse_fault_plan(config.fault_plan));
    injector->attach("link", link);
    injector->arm();
    if (spans) injector->set_span_buffer(&spans->buffer());
  }

  std::unique_ptr<ControlInjector> control;
  if (!config.control_plan.empty()) {
    control = std::make_unique<ControlInjector>(
        sim, parse_control_plan(config.control_plan));
    control->attach("link", link, config.scheduler, sched_config);
    control->arm();
    if (spans) control->set_span_buffer(&spans->buffer());
    if (registry) control->bind_metrics(*registry);
  }

  // Violation attribution: both planes contribute to the active-episode
  // context string ("down link+shed link") the monitor stamps on windows.
  if (conformance && (injector || control)) {
    conformance->set_fault_context(
        [inj = injector.get(), ctl = control.get()] {
          std::string s = inj ? inj->active_summary() : std::string();
          const std::string c = ctl ? ctl->active_summary() : std::string();
          if (!c.empty()) s = s.empty() ? c : s + "+" + c;
          return s;
        });
  }

  std::unique_ptr<Controller> controller;
  if (config.controller.enabled()) {
    PDS_REQUIRE(conformance != nullptr);  // validate() enforced the tau
    controller = std::make_unique<Controller>(
        sim, link, *conformance, config.sdp, config.controller);
    controller->arm(config.sim_time);
  }

  Watchdog watchdog(
      sim, WatchdogLimits{config.max_events, config.max_wall_seconds},
      [sched = scheduler.get(), n] {
        std::ostringstream os;
        for (ClassId c = 0; c < n; ++c) {
          os << "class " << c << " backlog=" << sched->backlog_packets(c)
             << "\n";
        }
        return os.str();
      });
  watchdog.run_until(config.sim_time);
  for (auto& s : sources) s->stop();
  for (auto& m : monitors) m.finish();
  if (writer) {
    writer->flush();
    result.metrics_snapshots = writer->snapshots_written();
  }
  if (tracer) {
    link.set_probe(nullptr);
    tracer->save(config.trace_out);
    result.trace_records = tracer->records().size();
  }
  if (profiler || span_monitor) sim.set_monitor(nullptr);
  if (profiler) {
    std::ostringstream os;
    profiler->print(os);
    result.profile_report = os.str();
  }
  if (conformance) {
    conformance->finish();
    if (violation_log) violation_log->close();
    result.conformance = conformance->summary();
    result.violations = conformance->violations();
  }
  if (spans) {
    span_monitor->finish();
    spans->write(config.spans_out);
    result.span_count = spans->span_count();
  }
  result.executed_events = sim.executed_events();
  // Attribute the deterministic work measure to the enclosing sweep cell (a
  // no-op outside supervised sweeps with telemetry).
  report_cell_work(sim.executed_events());

  result.mean_delays = delays.means();
  result.ratios = delays.successive_ratios();
  result.departures.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    result.departures.push_back(delays.of(c).count());
  }
  result.measured_utilization = link.busy_time() / config.sim_time;
  if (injector) result.fault_episodes = injector->episodes_completed();
  result.fault_drops = link.fault_drops();
  if (control) {
    result.control_episodes = control->episodes_completed();
    result.control_retunes = control->retunes_applied();
    result.control_swaps = control->swaps_applied();
    result.control_class_changes = control->class_changes_applied();
    result.control_sheds = control->sheds_applied();
    result.shed_drops = link.shed_drops();
    result.drain_drops = link.drain_drops();
  }
  if (controller) {
    result.controller_ticks = controller->ticks();
    result.controller_updates = controller->updates();
    result.controller_weights = controller->weights();
    result.controller_g = controller->g();
  }
  result.rd_per_tau.reserve(monitors.size());
  for (auto& m : monitors) result.rd_per_tau.push_back(m.rd_values());
  result.sawtooth_index.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    result.sawtooth_index.push_back(sawtooth.index(c));
  }
  result.sawtooth_collapses = sawtooth.total_collapses();
  result.jitter.reserve(n);
  for (ClassId c = 0; c < n; ++c) result.jitter.push_back(jitter.jitter(c));
  if (!retained.empty()) {
    result.delay_percentiles.reserve(n);
    for (ClassId c = 0; c < n; ++c) {
      result.delay_percentiles.push_back(
          retained[c].percentiles(config.report_percentiles));
    }
  }

  if (!config.report_out.empty()) {
    RunReport report("study_a");
    Json run = Json::object();
    run.set("scheduler", to_string(config.scheduler))
        .set("classes", n)
        .set("utilization", config.utilization)
        .set("sim_time", config.sim_time)
        .set("seed", config.seed)
        .set("fault_plan", config.fault_plan)
        .set("control_plan", config.control_plan)
        .set("controller", to_string(config.controller.mode));
    report.set_section("run", std::move(run));
    Json res = Json::object();
    Json means = Json::array();
    for (const double d : result.mean_delays) means.push(d);
    Json ratios = Json::array();
    for (const double r : result.ratios) ratios.push(r);
    res.set("executed_events", result.executed_events)
        .set("total_departures", result.total_departures)
        .set("measured_utilization", result.measured_utilization)
        .set("mean_delays", std::move(means))
        .set("ratios", std::move(ratios));
    report.set_section("results", std::move(res));
    if (registry) report.set_section("metrics", metrics_json(*registry));
    if (profiler) {
      report.set_section("profile",
                         profile_json(*profiler, config.report_volatile));
    }
    if (conformance) {
      report.set_section(
          "conformance",
          conformance_json(result.conformance, result.violations));
    }
    if (injector) {
      report.set_section("faults",
                         Json::object()
                             .set("scheduled", injector->scheduled_episodes())
                             .set("begun", injector->episodes_begun())
                             .set("completed", injector->episodes_completed())
                             .set("drops", result.fault_drops));
    }
    if (control || controller) {
      Json ctrl = Json::object();
      if (control) {
        ctrl.set("scheduled", control->scheduled_episodes())
            .set("applied", control->episodes_applied())
            .set("completed", control->episodes_completed())
            .set("retunes", control->retunes_applied())
            .set("swaps", control->swaps_applied())
            .set("class_changes", control->class_changes_applied())
            .set("sheds", control->sheds_applied())
            .set("shed_drops", result.shed_drops)
            .set("drain_drops", result.drain_drops);
      }
      if (controller) {
        Json weights = Json::array();
        for (const double w : controller->weights()) weights.push(w);
        ctrl.set("controller",
                 Json::object()
                     .set("mode", to_string(config.controller.mode))
                     .set("ticks", controller->ticks())
                     .set("updates", controller->updates())
                     .set("weights", std::move(weights))
                     .set("g", controller->g()));
      }
      report.set_section("control", std::move(ctrl));
    }
    if (spans) {
      report.set_section("spans",
                         Json::object().set("count", result.span_count));
    }
    report.write(config.report_out);
  }

  // The trace is recorded at arrival order = emission order per source, but
  // interleaving across sources already happens through the simulator, so
  // records are time-ordered by construction.
  return result;
}

std::vector<StudyAResult> run_study_a_replications(const StudyAConfig& config,
                                                   std::uint32_t seeds) {
  PDS_CHECK(seeds >= 1, "need at least one seed");
  config.validate();
  std::vector<StudyAResult> results(seeds);
  ThreadPool& pool = ThreadPool::global();
  // One config copy per pool participant, hoisted out of the claim loop;
  // each task mutates only the seed, so the monitor_taus /
  // report_percentiles vectors are copied once per worker, not once per
  // replication.
  std::vector<StudyAConfig> local(pool.workers(), config);
  pool.parallel_for(seeds, [&](std::uint32_t worker, std::size_t k) {
    StudyAConfig& c = local[worker];
    c.seed = config.seed + k;
    results[k] = run_study_a(c);
  });
  return results;
}

std::vector<double> average_ratios_over_seeds(StudyAConfig config,
                                              std::uint32_t seeds) {
  const auto results = run_study_a_replications(config, seeds);
  std::vector<double> acc(results.front().ratios.size(), 0.0);
  for (const auto& result : results) {
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += result.ratios[i];
  }
  for (auto& r : acc) r /= static_cast<double>(seeds);
  return acc;
}

}  // namespace pds
