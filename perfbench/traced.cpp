// Traced rebuilds of the workloads.
//
// Each rebuild constructs the simulation from the library's public parts in
// exactly the order the library's own runner does — run_study_a in
// core/study_a.cpp, build_replica/fill_report in net/scenario.cpp (serial
// path) — so the Rng::split sequence, event sequence numbers and therefore
// every output are the same; the digest comparison in main.cpp checks it.
// The only additions are observers: the kernel monitor, the scheduler
// decorator, the link probes and the handler wrappers of tracing.hpp.
#include <chrono>
#include <map>
#include <memory>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "exp/supervisor.hpp"
#include "exp/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/flows.hpp"
#include "net/topology.hpp"
#include "sched/link.hpp"
#include "stats/delay_stats.hpp"
#include "stats/percentile.hpp"
#include "traffic/calibration.hpp"
#include "traffic/source.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pds::ClassId;
using pds::LinkId;
using pds::NodeId;
using pds::Packet;
using pds::RouteId;
using pds::SimTime;

// Span records kept per traced run (the rest are only totalled); a
// replication set splits them between its simulations.
constexpr std::size_t kSpanCapacity = 40000;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Mirrors run_study_a's construction for the fields StudyASummary digests;
// the optional observability of the original (metrics, tracer, profiler,
// conformance) is off in the workload and so absent here.
StudyASummary traced_study_a(const pds::StudyAConfig& config, Tracer& tr) {
  config.validate();
  const std::uint32_t n = config.num_classes();
  const SimTime warmup = config.warmup_end();

  KernelMonitor monitor(tr);
  HopProbe probe(tr, /*forwarding=*/false);

  pds::Simulator sim(config.event_queue);
  pds::PacketIdAllocator ids;
  pds::Rng master(config.seed);

  pds::SchedulerConfig sched_config;
  sched_config.sdp = config.sdp;
  sched_config.link_capacity = config.capacity;
  auto scheduler = pds::make_scheduler(config.scheduler, sched_config);
  TimedScheduler timed(*scheduler, tr);

  pds::ClassDelayStats delays(n, warmup);
  std::uint64_t total_departures = 0;
  pds::Link link(sim, *scheduler, config.capacity,
                 [&](Packet&& p, SimTime wait, SimTime now) {
                   tr.begin(Layer::kSink);
                   delays.record(p.cls, wait, now);
                   if (now >= warmup) ++total_departures;
                   tr.end();
                 });

  const pds::DiscreteDist size_law = pds::paper_size_law();
  const auto interarrivals = pds::class_mean_interarrivals(
      config.utilization, config.load_fractions, config.capacity,
      size_law.mean());
  const auto make_gaps = [&](double mean) {
    return config.arrivals == pds::ArrivalModel::kPareto
               ? pds::pareto_gaps(config.pareto_alpha, mean)
               : pds::exponential_gaps(mean);
  };
  std::vector<std::unique_ptr<pds::RenewalSource>> sources;
  sources.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    sources.push_back(std::make_unique<pds::RenewalSource>(
        sim, ids, c, make_gaps(interarrivals[c]), pds::law_size(size_law),
        master.split(), [&](Packet p) {
          tr.begin(Layer::kArrival);
          ++tr.source_packets;
          link.arrive(std::move(p));
          tr.end();
        }));
    sources.back()->start(pds::kTimeZero);
  }

  link.set_probe(&probe);
  link.set_scheduler(timed);
  sim.set_monitor(&monitor);
  pds::Watchdog watchdog(
      sim, pds::WatchdogLimits{config.max_events, config.max_wall_seconds});
  tr.run_begin();
  watchdog.run_until(config.sim_time);
  tr.run_end();
  for (auto& s : sources) s->stop();
  sim.set_monitor(nullptr);

  StudyASummary out;
  out.mean_delays = delays.means();
  out.ratios = delays.successive_ratios();
  for (ClassId c = 0; c < n; ++c) out.departures.push_back(delays.of(c).count());
  out.utilization = link.busy_time() / config.sim_time;
  out.total_departures = total_departures;
  out.executed_events = sim.executed_events();
  return out;
}

TracedResult traced_single_link(const WorkloadSpec& spec) {
  TracedResult out;
  std::vector<StudyASummary> seeds(spec.replications);
  for (std::uint32_t k = 0; k < spec.replications; ++k) {
    out.tracers.push_back(
        std::make_unique<Tracer>(kSpanCapacity / spec.replications,
                                 spec.study.warmup_end()));
  }
  // Same fan-out as run_study_a_replications: one seed per pool index.
  pds::ThreadPool::global().parallel_for(
      spec.replications, [&](std::uint32_t, std::size_t k) {
        pds::StudyAConfig c = spec.study;
        c.seed = spec.study.seed + k;
        seeds[k] = traced_study_a(c, *out.tracers[k]);
      });
  out.op = summarize_study_a(spec, seeds);
  out.traced_links = 1;  // the one link of each replication
  return out;
}

// Links a control plan swaps or HPD-retunes keep their own scheduler: the
// decorator holds no backlog to hand over and is not an HpdScheduler.
std::vector<bool> decoratable_links(const pds::Network& net,
                                    const std::string& control_plan) {
  std::vector<bool> ok(net.num_links(), true);
  if (control_plan.empty()) return ok;
  for (const auto& ep : pds::parse_control_plan(control_plan).episodes) {
    const bool replaces_or_casts =
        ep.kind == pds::ControlKind::kSwap ||
        (ep.kind == pds::ControlKind::kRetune && ep.g > 0.0);
    if (!replaces_or_casts) continue;
    for (LinkId id = 0; id < net.num_links(); ++id) {
      if (pds::target_pattern_matches(ep.target, net.link_name(id))) {
        ok[id] = false;
      }
    }
  }
  return ok;
}

TracedResult traced_scenario(const WorkloadSpec& spec) {
  TracedResult out;
  auto t0 = std::chrono::steady_clock::now();
  const pds::Scenario scenario = pds::parse_scenario(spec.scenario_text);
  out.parse_ms = ms_since(t0);

  const pds::ScenarioOptions& options = spec.options;
  const double until = scenario.run.until * options.horizon_scale;
  const double warmup = scenario.run.warmup * options.horizon_scale;
  out.tracers.push_back(std::make_unique<Tracer>(kSpanCapacity, warmup));
  Tracer& tr = *out.tracers.back();
  // Observers first: they must outlive the links that point at them.
  KernelMonitor monitor(tr);
  HopProbe probe(tr, /*forwarding=*/true);
  std::vector<std::unique_ptr<TimedScheduler>> decorators;

  t0 = std::chrono::steady_clock::now();
  // --- build_replica (serial path), same member and construction order ---
  pds::Simulator sim;
  pds::PacketIdAllocator ids;
  pds::FlowIdAllocator flow_ids;
  pds::Rng master(options.seed.value_or(scenario.run.seed));
  pds::Network net(sim);
  std::map<std::string, NodeId> node_ids;
  std::map<std::string, LinkId> link_ids;
  std::uint32_t max_classes = 1;
  std::uint64_t total_exits = 0;
  std::vector<std::vector<pds::SampleSet>> samples;
  std::vector<std::vector<pds::RpcWorkload*>> flow_dispatch;
  std::map<std::string, RouteId> route_ids;
  std::vector<std::pair<RouteId, RouteId>> flow_routes;
  std::vector<std::unique_ptr<pds::RenewalSource>> renewals;
  std::vector<std::unique_ptr<pds::ClassMixSource>> mixes;
  std::vector<std::unique_ptr<pds::CbrFlowSource>> cbrs;
  std::vector<std::unique_ptr<pds::RpcWorkload>> workloads;
  std::unique_ptr<pds::FaultInjector> injector;
  std::unique_ptr<pds::ControlInjector> control;

  for (const auto& name : scenario.nodes) node_ids[name] = net.add_node(name);
  for (const auto& link : scenario.links) {
    pds::SchedulerConfig sc;
    sc.sdp = link.sdp;
    sc.link_capacity = link.capacity;
    sc.burst = link.burst;
    const LinkId id =
        link.from.empty()
            ? net.add_link(link.kind, sc, link.capacity, link.name)
            : net.add_edge(node_ids.at(link.from), node_ids.at(link.to),
                           link.kind, sc, link.capacity, link.name);
    if (link.buffer > 0) net.make_lossy(id, link.buffer);
    link_ids[link.name] = id;
    max_classes =
        std::max(max_classes, static_cast<std::uint32_t>(link.sdp.size()));
  }
  samples.assign(scenario.routes.size(),
                 std::vector<pds::SampleSet>(max_classes));

  // Routes that carry RPC flows time their exit handlers as net.rpc_exit.
  std::vector<bool> rpc_route(scenario.routes.size(), false);
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    for (const auto& f : scenario.flows) {
      if (f.route == scenario.routes[r].name ||
          f.reverse == scenario.routes[r].name) {
        rpc_route[r] = true;
      }
    }
  }
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    const Layer layer = rpc_route[r] ? Layer::kRpcExit : Layer::kRouteExit;
    const auto handler = [&, r, layer](const Packet& p, SimTime now) {
      tr.end_if(Layer::kForward);
      tr.begin(layer);
      ++total_exits;
      if (now >= warmup && p.cls < max_classes) {
        samples[r][p.cls].add(p.cum_queueing);
      }
      for (pds::RpcWorkload* wl : flow_dispatch[p.route]) {
        wl->on_route_exit(p, now);
      }
      tr.end();
    };
    if (route.from.empty()) {
      std::vector<LinkId> path;
      for (const auto& name : route.links) path.push_back(link_ids.at(name));
      route_ids[route.name] = net.add_route(path, handler);
    } else {
      route_ids[route.name] = net.add_route_between(
          node_ids.at(route.from), node_ids.at(route.to), handler);
    }
  }

  const auto reverse_handler = [&](const Packet& p, SimTime now) {
    tr.end_if(Layer::kForward);
    tr.begin(Layer::kRpcExit);
    ++total_exits;
    for (pds::RpcWorkload* wl : flow_dispatch[p.route]) {
      wl->on_route_exit(p, now);
    }
    tr.end();
  };
  std::map<std::string, RouteId> auto_reverse;
  for (const auto& f : scenario.flows) {
    const RouteId forward = route_ids.at(f.route);
    RouteId reverse;
    if (!f.reverse.empty()) {
      reverse = route_ids.at(f.reverse);
    } else if (const auto it = auto_reverse.find(f.route);
               it != auto_reverse.end()) {
      reverse = it->second;
    } else {
      const pds::ScenarioRoute* route = nullptr;
      for (const auto& r : scenario.routes) {
        if (r.name == f.route) route = &r;
      }
      reverse = net.add_route_between(node_ids.at(route->to),
                                      node_ids.at(route->from),
                                      reverse_handler);
      auto_reverse.emplace(f.route, reverse);
    }
    flow_routes.emplace_back(forward, reverse);
  }

  const auto make_gaps = [](const pds::ScenarioSource& src) {
    return src.pareto_alpha > 0.0 ? pds::pareto_gaps(src.pareto_alpha, src.gap)
                                  : pds::exponential_gaps(src.gap);
  };
  for (const auto& src : scenario.sources) {
    const RouteId route = route_ids.at(src.route);
    const auto handler = [&net, &tr, route](Packet p) {
      tr.begin(Layer::kArrival);
      ++tr.source_packets;
      net.inject(std::move(p), route);
      tr.end();
    };
    switch (src.kind) {
      case pds::ScenarioSourceKind::kRenewal:
        renewals.push_back(std::make_unique<pds::RenewalSource>(
            sim, ids, src.cls, make_gaps(src), pds::fixed_size(src.size_bytes),
            master.split(), handler));
        renewals.back()->start(src.start);
        break;
      case pds::ScenarioSourceKind::kMix:
        mixes.push_back(std::make_unique<pds::ClassMixSource>(
            sim, ids, src.fractions, make_gaps(src),
            pds::fixed_size(src.size_bytes), master.split(), handler));
        mixes.back()->start(src.start);
        break;
      case pds::ScenarioSourceKind::kCbr:
        cbrs.push_back(std::make_unique<pds::CbrFlowSource>(
            sim, ids, src.cls, pds::kNoFlow - 1, src.count, src.size_bytes,
            src.interval, handler));
        cbrs.back()->start(src.start);
        break;
    }
  }

  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const auto& f = scenario.flows[i];
    pds::RpcConfig rc;
    rc.cls = f.cls;
    rc.users = options.users.value_or(f.users);
    rc.request_packets = f.request_packets;
    rc.response_packets = f.response_packets;
    rc.size_bytes = f.size_bytes;
    rc.think_mean = f.think_mean;
    rc.deadline = f.deadline;
    rc.rto = f.rto;
    rc.max_retries = f.max_retries;
    rc.backoff = f.backoff;
    rc.rto_cap = f.rto_cap;
    rc.throttle_tokens = f.throttle_tokens;
    rc.throttle_ratio = f.throttle_ratio;
    workloads.push_back(std::make_unique<pds::RpcWorkload>(
        sim, net, ids, flow_ids, flow_routes[i].first, flow_routes[i].second,
        rc, master.split()));
    workloads.back()->set_warmup(warmup);
  }
  flow_dispatch.assign(net.num_routes(), {});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    flow_dispatch[flow_routes[i].first].push_back(workloads[i].get());
    if (flow_routes[i].second != flow_routes[i].first) {
      flow_dispatch[flow_routes[i].second].push_back(workloads[i].get());
    }
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    workloads[i]->start(scenario.flows[i].start);
  }

  if (!options.fault_plan.empty()) {
    injector = std::make_unique<pds::FaultInjector>(
        sim, pds::parse_fault_plan(options.fault_plan));
    pds::attach_network(*injector, net);
    injector->arm();
  }
  if (!options.control_plan.empty()) {
    control = std::make_unique<pds::ControlInjector>(
        sim, pds::parse_control_plan(options.control_plan));
    pds::attach_network(*control, net);
    control->arm();
  }
  out.build_ms = ms_since(t0);

  // --- observers, installed before the first event runs ---
  const std::vector<bool> decoratable =
      decoratable_links(net, options.control_plan);
  for (LinkId id = 0; id < net.num_links(); ++id) {
    // Probe first: Link::set_probe also attaches to the current scheduler.
    if (pds::LossyLink* lossy = net.lossy(id)) {
      lossy->set_probe(&probe, id);
    } else {
      net.link_mut(id).set_probe(&probe, id);
    }
    if (!decoratable[id]) continue;
    pds::Link& link = net.link_mut(id);
    decorators.push_back(
        std::make_unique<TimedScheduler>(link.scheduler_mut(), tr));
    link.set_scheduler(*decorators.back());
  }
  out.traced_links = static_cast<std::uint32_t>(decorators.size());
  sim.set_monitor(&monitor);

  // --- run_scenario (serial path) ---
  if (options.max_events > 0 || options.max_wall_seconds > 0.0) {
    sim.set_budget(options.max_events, options.max_wall_seconds);
  }
  tr.run_begin();
  sim.run_until(until);
  tr.run_end();
  for (auto& s : renewals) s->stop();
  for (auto& s : mixes) s->stop();
  sim.set_monitor(nullptr);

  // --- fill_report (serial path) ---
  pds::ScenarioReport report;
  report.total_exits = total_exits;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    for (ClassId c = 0; c < max_classes; ++c) {
      const auto& set = samples[r][c];
      if (set.empty()) continue;
      report.route_stats.push_back(pds::ScenarioReport::RouteClassStats{
          scenario.routes[r].name, c, set.count(), set.mean(),
          set.percentile(95.0)});
    }
  }
  for (const auto& link : scenario.links) {
    const LinkId id = link_ids.at(link.name);
    const pds::Link& l = net.link(id);
    pds::ScenarioReport::LinkStats ls;
    ls.link = link.name;
    ls.sched = pds::to_string(link.kind);
    ls.utilization = net.utilization(id);
    ls.packets_sent = l.packets_sent();
    ls.fault_drops = l.fault_drops();
    if (const pds::LossyLink* lossy = net.lossy(id)) {
      ls.burst_drops = lossy->burst_drops();
      for (ClassId c = 0; c < l.scheduler().num_classes(); ++c) {
        ls.buffer_drops += lossy->drops(c);
      }
    }
    ls.control_drops = l.drain_drops() + l.shed_drops();
    report.fault_drops += ls.fault_drops;
    report.shed_drops += l.shed_drops();
    report.drain_drops += l.drain_drops();
    report.link_stats.push_back(std::move(ls));
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& st = workloads[i]->stats();
    pds::ScenarioReport::FlowStats fs;
    fs.route = scenario.flows[i].route;
    fs.cls = scenario.flows[i].cls;
    fs.users = workloads[i]->config().users;
    fs.issued = st.issued;
    fs.completed = st.completed;
    fs.failed = st.failed;
    fs.retries = st.retries;
    fs.throttled = st.throttled;
    if (!st.fct.empty()) {
      fs.fct_mean = st.fct.mean();
      const auto q = st.fct.percentiles({50.0, 95.0, 99.0});
      fs.fct_p50 = q[0];
      fs.fct_p95 = q[1];
      fs.fct_p99 = q[2];
    }
    fs.slo_attainment = st.slo_attainment();
    fs.deadline = scenario.flows[i].deadline;
    report.flow_stats.push_back(std::move(fs));
  }
  if (injector) {
    report.faulted = true;
    report.fault_episodes_scheduled = injector->scheduled_episodes();
    report.fault_episodes = injector->episodes_completed();
  }
  if (control) {
    report.controlled = true;
    report.control_episodes_scheduled = control->scheduled_episodes();
    report.control_episodes = control->episodes_completed();
    report.control_retunes = control->retunes_applied();
    report.control_swaps = control->swaps_applied();
    report.control_class_changes = control->class_changes_applied();
    report.control_sheds = control->sheds_applied();
  }
  out.op = summarize_scenario(spec, scenario, report);
  return out;
}

}  // namespace

TracedResult run_traced(const WorkloadSpec& spec) {
  TracedResult out = spec.kind == WorkloadKind::kSingleLinkWtp
                         ? traced_single_link(spec)
                         : traced_scenario(spec);
  for (const auto& t : out.tracers) out.totals.merge(*t);
  return out;
}

}  // namespace perfbench
