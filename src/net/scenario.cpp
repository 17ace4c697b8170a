#include "net/scenario.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/flows.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"
#include "util/line_lexer.hpp"

namespace pds {

namespace {

// Parse-time view of the declared graph, for route validation.
struct ParseGraph {
  std::map<std::string, NodeId> node_index;
  std::vector<GraphEdge> edges;  // link = index into scenario.links
  std::map<std::string, std::uint32_t> link_index;  // into scenario.links
  std::vector<std::size_t> link_classes;            // sdp= count per link
  std::map<std::string, std::size_t> route_index;   // into scenario.routes
  // Per route, the classes it can carry (the smallest sdp= count on its
  // path), and how many edges were declared when that was computed.
  std::vector<std::size_t> route_classes;
  std::vector<std::size_t> route_edges;
};

// The per-link options shared by the link, edge and topology directives.
void read_link_options(LineOptions& opts, ScenarioLink& link) {
  link.capacity = opts.number("capacity");
  if (link.capacity <= 0.0) opts.fail("capacity must be positive");
  const std::string sched = opts.require("sched");
  try {
    link.kind = scheduler_kind_from_string(sched);
  } catch (const std::invalid_argument&) {
    opts.fail("unknown scheduler " + sched);
  }
  link.sdp = opts.weights("sdp");
  // buffer=<pkts>: a finite drop-tail buffer; the default 0 is the paper's
  // lossless link.
  link.buffer = opts.integer_or<std::uint64_t>("buffer", 0);
}

void add_scenario_node(Scenario& scenario, ParseGraph& graph,
                       const std::string& name, const LineLexer& lex) {
  if (graph.node_index.count(name)) lex.fail("duplicate node name " + name);
  graph.node_index[name] = static_cast<NodeId>(scenario.nodes.size());
  scenario.nodes.push_back(name);
}

void add_scenario_link(Scenario& scenario, ParseGraph& graph,
                       ScenarioLink link, const LineLexer& lex) {
  const auto index = static_cast<std::uint32_t>(scenario.links.size());
  if (!graph.link_index.emplace(link.name, index).second) {
    lex.fail("duplicate link name " + link.name);
  }
  if (!link.from.empty()) {
    graph.edges.push_back(GraphEdge{index, graph.node_index.at(link.from),
                                    graph.node_index.at(link.to)});
  }
  graph.link_classes.push_back(link.sdp.size());
  scenario.links.push_back(std::move(link));
}

NodeId require_node(const ParseGraph& graph, const std::string& name,
                    const LineLexer& lex) {
  const auto it = graph.node_index.find(name);
  if (it == graph.node_index.end()) lex.fail("unknown node " + name);
  return it->second;
}

const ScenarioRoute* find_route(const Scenario& scenario,
                                const std::string& name) {
  for (const auto& r : scenario.routes) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::vector<std::uint32_t> shortest_path(const Scenario& scenario,
                                         const ParseGraph& graph,
                                         const std::string& from,
                                         const std::string& to) {
  return shortest_path_links(static_cast<NodeId>(scenario.nodes.size()),
                             graph.edges, graph.node_index.at(from),
                             graph.node_index.at(to));
}

// Classes every link of `path` can queue: its smallest sdp= count.
std::size_t path_classes(const ParseGraph& graph,
                         const std::vector<std::uint32_t>& path) {
  std::size_t classes = std::numeric_limits<std::size_t>::max();
  for (const std::uint32_t id : path) {
    classes = std::min(classes, graph.link_classes[id]);
  }
  return classes;
}

// `count` classes (indices 0..count-1) must fit the `classes` of `path`.
void check_class(const LineLexer& lex, std::size_t line_no, std::size_t count,
                 const char* what, std::size_t classes,
                 const std::string& path) {
  if (count > classes) {
    lex.fail_at(line_no, what + std::to_string(count - 1) + " exceeds the " +
                             std::to_string(classes) + " classes of " + path +
                             " (its smallest sdp= count)");
  }
}

// Every class a source or flows directive emits must be queueable on each
// link it crosses — for flows, on the request and on the response path.
// Checked once the whole file is read, because a routed route takes its
// shortest path over every declared edge, as the run does.
void check_route_classes(const Scenario& scenario, const ParseGraph& graph,
                         const LineLexer& lex,
                         const std::vector<std::size_t>& source_lines,
                         const std::vector<std::size_t>& flow_lines) {
  // A routed route declared before the last edge may run on a different
  // path: recompute it over every edge.
  std::vector<std::size_t> route_classes = graph.route_classes;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    if (!route.from.empty() && graph.route_edges[r] != graph.edges.size()) {
      route_classes[r] = path_classes(
          graph, shortest_path(scenario, graph, route.from, route.to));
    }
  }
  const auto classes_of = [&](const std::string& name) {
    return route_classes[graph.route_index.at(name)];
  };
  for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
    const auto& src = scenario.sources[i];
    const std::size_t classes = classes_of(src.route);
    if (src.kind == ScenarioSourceKind::kMix) {
      check_class(lex, source_lines[i], src.fractions.size(),
                  "fractions= class ", classes, "route " + src.route);
    } else {
      check_class(lex, source_lines[i], std::size_t{src.cls} + 1, "class ",
                  classes, "route " + src.route);
    }
  }
  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const auto& f = scenario.flows[i];
    const std::size_t count = std::size_t{f.cls} + 1;
    check_class(lex, flow_lines[i], count, "class ", classes_of(f.route),
                "route " + f.route);
    if (!f.reverse.empty()) {
      check_class(lex, flow_lines[i], count, "class ", classes_of(f.reverse),
                  "route " + f.reverse);
    } else {
      const ScenarioRoute& fwd =
          scenario.routes[graph.route_index.at(f.route)];
      const auto back = shortest_path(scenario, graph, fwd.to, fwd.from);
      check_class(lex, flow_lines[i], count, "class ",
                  path_classes(graph, back),
                  "the response path of route " + f.route);
    }
  }
}

void expand_topology(Scenario& scenario, ParseGraph& graph,
                     const LineLexer& lex) {
  const auto& tokens = lex.tokens();
  if (tokens.size() < 2) lex.fail("topology needs a kind");
  const std::string& kind = tokens[1];
  LineOptions opts(lex, 2);
  TopologySpec spec;
  if (kind == "line" || kind == "ring") {
    const auto n = opts.integer<std::uint32_t>("n");
    if (kind == "line") {
      if (n < 2) lex.fail("line needs n >= 2");
      spec = make_line_topology(n);
    } else {
      if (n < 3) lex.fail("ring needs n >= 3");
      spec = make_ring_topology(n);
    }
  } else if (kind == "fat_tree") {
    const auto k = opts.integer<std::uint32_t>("k");
    if (k < 2 || k % 2 != 0) lex.fail("fat_tree needs an even k >= 2");
    spec = make_fat_tree_topology(k);
  } else if (kind == "two_tier") {
    const auto cores = opts.integer<std::uint32_t>("cores");
    const auto pops = opts.integer<std::uint32_t>("pops");
    if (cores < 1 || pops < 1) {
      lex.fail("two_tier needs cores >= 1 and pops >= 1");
    }
    spec = make_two_tier_topology(cores, pops);
  } else {
    lex.fail("unknown topology kind " + kind);
  }

  ScenarioLink proto;
  read_link_options(opts, proto);
  const std::string prefix = opts.take("prefix").value_or("");
  opts.finish();

  for (const auto& name : spec.nodes) {
    add_scenario_node(scenario, graph, prefix + name, lex);
  }
  for (const auto& [a, b] : spec.edges) {
    for (int dir = 0; dir < 2; ++dir) {
      ScenarioLink link = proto;
      link.from = prefix + (dir == 0 ? a : b);
      link.to = prefix + (dir == 0 ? b : a);
      link.name = link.from + ">" + link.to;
      add_scenario_link(scenario, graph, std::move(link), lex);
    }
  }
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  ParseGraph graph;
  std::vector<std::size_t> source_lines;
  std::vector<std::size_t> flow_lines;
  bool saw_run = false;
  LineLexer lex(text, "scenario");
  while (lex.next()) {
    const auto& tokens = lex.tokens();
    const auto& kind = tokens[0];

    if (kind == "node") {
      if (tokens.size() < 2) lex.fail("node needs a name");
      LineOptions(lex, 2).finish();
      add_scenario_node(scenario, graph, tokens[1], lex);
    } else if (kind == "edge" || kind == "link") {
      if (tokens.size() < 2) lex.fail(kind + " needs a name");
      ScenarioLink link;
      link.name = tokens[1];
      LineOptions opts(lex, 2);
      if (kind == "edge") {
        link.from = opts.require("from");
        link.to = opts.require("to");
        require_node(graph, link.from, lex);
        require_node(graph, link.to, lex);
        if (link.from == link.to) lex.fail("edge endpoints must differ");
      }
      read_link_options(opts, link);
      opts.finish();
      add_scenario_link(scenario, graph, std::move(link), lex);
    } else if (kind == "topology") {
      expand_topology(scenario, graph, lex);
    } else if (kind == "route") {
      if (tokens.size() < 3) lex.fail("route needs a name and links");
      ScenarioRoute route;
      route.name = tokens[1];
      if (!graph.route_index.emplace(route.name, scenario.routes.size())
               .second) {
        lex.fail("duplicate route name " + route.name);
      }
      std::size_t classes = std::numeric_limits<std::size_t>::max();
      const bool routed = tokens[2].find('=') != std::string::npos;
      if (routed) {
        LineOptions opts(lex, 2);
        route.from = opts.require("from");
        route.to = opts.require("to");
        opts.finish();
        const NodeId from = require_node(graph, route.from, lex);
        const NodeId to = require_node(graph, route.to, lex);
        if (from == to) lex.fail("route endpoints must differ");
        const auto path = shortest_path_links(
            static_cast<NodeId>(scenario.nodes.size()), graph.edges, from,
            to);
        if (path.empty()) {
          lex.fail("no path from " + route.from + " to " + route.to);
        }
        classes = path_classes(graph, path);
      } else {
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          const auto link = graph.link_index.find(tokens[i]);
          if (link == graph.link_index.end()) {
            lex.fail("unknown link " + tokens[i]);
          }
          route.links.push_back(tokens[i]);
          classes = std::min(classes, graph.link_classes[link->second]);
        }
      }
      scenario.routes.push_back(std::move(route));
      graph.route_classes.push_back(classes);
      graph.route_edges.push_back(graph.edges.size());
    } else if (kind == "source") {
      if (tokens.size() < 3) lex.fail("source needs a kind and route");
      ScenarioSource src;
      const auto& sk = tokens[1];
      if (sk == "renewal") {
        src.kind = ScenarioSourceKind::kRenewal;
      } else if (sk == "mix") {
        src.kind = ScenarioSourceKind::kMix;
      } else if (sk == "cbr") {
        src.kind = ScenarioSourceKind::kCbr;
      } else {
        lex.fail("unknown source kind " + sk);
      }
      src.route = tokens[2];
      if (!find_route(scenario, src.route)) {
        lex.fail("unknown route " + src.route);
      }

      LineOptions opts(lex, 3);
      src.start = opts.number_or("start", 0.0);
      if (src.start < 0.0) lex.fail("start must be non-negative");
      src.size_bytes = opts.integer<std::uint32_t>("size");
      if (src.size_bytes < 1) lex.fail("source needs size >= 1");
      // Renewal and mix sources: mean gap plus the interarrival law, where
      // pareto_alpha == 0 is the internal Poisson marker, so a Pareto shape
      // must be given as > 1 (a finite mean).
      const auto read_arrivals = [&] {
        src.gap = opts.number("gap");
        if (src.gap <= 0.0) lex.fail("gap must be positive");
        if (opts.flag("poisson")) return;
        src.pareto_alpha = opts.number_or("pareto", 1.9);
        if (src.pareto_alpha <= 1.0) lex.fail("pareto shape must exceed 1");
      };
      switch (src.kind) {
        case ScenarioSourceKind::kRenewal:
          src.cls = opts.integer<ClassId>("class");
          read_arrivals();
          break;
        case ScenarioSourceKind::kMix: {
          src.fractions = opts.list("fractions");
          double total = 0.0;
          for (const double f : src.fractions) {
            if (f < 0.0) lex.fail("fractions must be non-negative");
            total += f;
          }
          if (total <= 0.0) lex.fail("fractions must not all be zero");
          read_arrivals();
          break;
        }
        case ScenarioSourceKind::kCbr:
          src.cls = opts.integer<ClassId>("class");
          src.count = opts.integer<std::uint32_t>("count", 1);
          src.interval = opts.number("interval");
          if (src.interval <= 0.0) lex.fail("interval must be positive");
          break;
      }
      opts.finish();
      scenario.sources.push_back(std::move(src));
      source_lines.push_back(lex.line_no());
    } else if (kind == "flows") {
      if (tokens.size() < 2) lex.fail("flows need a route");
      ScenarioFlows f;
      f.route = tokens[1];
      const ScenarioRoute* route = find_route(scenario, f.route);
      if (!route) lex.fail("unknown route " + f.route);

      LineOptions opts(lex, 2);
      f.cls = opts.integer<ClassId>("class");
      f.users = opts.integer<std::uint32_t>("users");
      f.size_bytes = opts.integer<std::uint32_t>("size");
      f.think_mean = opts.number("think");
      f.request_packets = opts.integer_or<std::uint32_t>("request", 1);
      f.response_packets =
          opts.integer_or<std::uint32_t>("response", f.request_packets);
      f.deadline = opts.number_or("deadline", 0.0);
      f.rto = opts.number_or("rto", 0.0);
      f.max_retries = opts.integer_or<std::uint32_t>("retries", 0);
      f.backoff = opts.number_or("backoff", 2.0);
      f.rto_cap = opts.number_or("rto_cap", 0.0);
      f.throttle_tokens = opts.number_or("throttle", 0.0);
      f.throttle_ratio = opts.number_or("throttle_ratio", 0.1);
      f.start = opts.number_or("start", 0.0);
      if (const auto rev = opts.take("reverse")) {
        f.reverse = *rev;
        if (!find_route(scenario, f.reverse)) {
          lex.fail("unknown route " + f.reverse);
        }
      }
      opts.finish();

      if (f.users < 1) lex.fail("flows need users >= 1");
      if (f.size_bytes < 1) lex.fail("flows need size >= 1");
      if (f.request_packets < 1 || f.response_packets < 1) {
        lex.fail("request/response need at least one packet");
      }
      if (f.think_mean < 0.0) lex.fail("think must be non-negative");
      if (f.max_retries > 0 && f.rto <= 0.0) {
        lex.fail("retries need a positive rto");
      }
      if (f.backoff < 1.0) lex.fail("backoff must be >= 1");
      if (f.start < 0.0) lex.fail("start must be non-negative");
      if (f.deadline < 0.0) lex.fail("deadline must be non-negative");
      if (f.rto_cap < 0.0) lex.fail("rto_cap must be non-negative");
      if (f.throttle_tokens < 0.0) lex.fail("throttle must be non-negative");
      if (f.throttle_tokens > 0.0 && f.throttle_ratio <= 0.0) {
        lex.fail("throttle_ratio must be positive");
      }
      if (f.reverse.empty()) {
        // Responses return over the auto-computed shortest path back, which
        // only exists for routed (from=/to=) forward routes.
        if (route->from.empty()) {
          lex.fail("flows over an explicit route need reverse=<route>");
        }
        const auto back = shortest_path_links(
            static_cast<NodeId>(scenario.nodes.size()), graph.edges,
            graph.node_index.at(route->to), graph.node_index.at(route->from));
        if (back.empty()) {
          lex.fail("no path from " + route->to + " to " + route->from +
                   " for the response direction");
        }
      }
      scenario.flows.push_back(std::move(f));
      flow_lines.push_back(lex.line_no());
    } else if (kind == "run") {
      if (saw_run) lex.fail("duplicate run directive");
      saw_run = true;
      LineOptions opts(lex, 1);
      scenario.run.until = opts.number("until");
      scenario.run.warmup = opts.number_or("warmup", 0.0);
      scenario.run.seed = opts.integer_or<std::uint64_t>("seed", 1);
      opts.finish();
      if (scenario.run.warmup < 0.0) lex.fail("warmup must be non-negative");
      if (!(scenario.run.until > scenario.run.warmup)) {
        lex.fail("run horizon must exceed the warmup");
      }
    } else {
      lex.fail("unknown directive " + kind);
    }
  }
  if (scenario.links.empty()) {
    throw std::invalid_argument("scenario defines no links");
  }
  if (!saw_run) throw std::invalid_argument("scenario has no run directive");
  if (scenario.sources.empty() && scenario.flows.empty()) {
    throw std::invalid_argument("scenario defines no sources");
  }
  check_route_classes(scenario, graph, lex, source_lines, flow_lines);
  return scenario;
}

namespace {

// The complete state of one scenario run. Field order mirrors the old
// run_scenario local order so the destruction sequence is unchanged.
struct Replica {
  explicit Replica(std::uint64_t seed) : master(seed), net(sim) {}

  Simulator sim;
  PacketIdAllocator ids;
  FlowIdAllocator flow_ids;
  Rng master;
  Network net;

  std::map<std::string, NodeId> node_ids;
  std::map<std::string, LinkId> link_ids;
  std::uint32_t max_classes = 1;
  std::uint64_t total_exits = 0;
  // (route index, class) -> samples of end-to-end queueing delay.
  std::vector<std::vector<SampleSet>> samples;
  // RouteId -> workloads whose forward or reverse route it is.
  std::vector<std::vector<RpcWorkload*>> flow_dispatch;
  std::map<std::string, RouteId> route_ids;
  std::vector<std::pair<RouteId, RouteId>> flow_routes;
  std::vector<std::unique_ptr<RenewalSource>> renewals;
  std::vector<std::unique_ptr<ClassMixSource>> mixes;
  std::vector<std::unique_ptr<CbrFlowSource>> cbrs;
  std::vector<std::unique_ptr<RpcWorkload>> workloads;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<ControlInjector> control;
};

// Builds and starts the simulation: nodes, links, routes, auto-reverse
// routes, sources, workloads, then the fault and control plans.
void build_replica(Replica& rep, const Scenario& scenario,
                   const ScenarioOptions& options, double warmup) {
  for (const auto& name : scenario.nodes) {
    rep.node_ids[name] = rep.net.add_node(name);
  }

  for (const auto& link : scenario.links) {
    SchedulerConfig sc;
    sc.sdp = link.sdp;
    sc.link_capacity = link.capacity;
    const LinkId id =
        link.from.empty()
            ? rep.net.add_link(link.kind, sc, link.capacity, link.name)
            : rep.net.add_edge(rep.node_ids.at(link.from),
                               rep.node_ids.at(link.to), link.kind, sc,
                               link.capacity, link.name);
    if (link.buffer > 0) rep.net.make_lossy(id, link.buffer);
    rep.link_ids[link.name] = id;
    rep.max_classes = std::max(
        rep.max_classes, static_cast<std::uint32_t>(link.sdp.size()));
  }

  rep.samples.assign(scenario.routes.size(),
                     std::vector<SampleSet>(rep.max_classes));

  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    const auto& route = scenario.routes[r];
    const auto handler = [&rep, warmup, r](const Packet& p, SimTime now) {
      ++rep.total_exits;
      if (now >= warmup && p.cls < rep.max_classes) {
        rep.samples[r][p.cls].add(p.cum_queueing);
      }
      for (RpcWorkload* wl : rep.flow_dispatch[p.route]) {
        wl->on_route_exit(p, now);
      }
    };
    if (route.from.empty()) {
      std::vector<LinkId> path;
      for (const auto& name : route.links) {
        path.push_back(rep.link_ids.at(name));
      }
      rep.route_ids[route.name] = rep.net.add_route(path, handler);
    } else {
      rep.route_ids[route.name] = rep.net.add_route_between(
          rep.node_ids.at(route.from), rep.node_ids.at(route.to), handler);
    }
  }

  // Reverse routes for flows without an explicit reverse= (one per forward
  // route, shared between workloads). Their exits count toward total_exits
  // but carry no per-route stats row.
  const auto reverse_handler = [&rep](const Packet& p, SimTime now) {
    ++rep.total_exits;
    for (RpcWorkload* wl : rep.flow_dispatch[p.route]) {
      wl->on_route_exit(p, now);
    }
  };
  std::map<std::string, RouteId> auto_reverse;
  for (const auto& f : scenario.flows) {
    const RouteId forward = rep.route_ids.at(f.route);
    RouteId reverse;
    if (!f.reverse.empty()) {
      reverse = rep.route_ids.at(f.reverse);
    } else {
      const auto it = auto_reverse.find(f.route);
      if (it != auto_reverse.end()) {
        reverse = it->second;
      } else {
        const ScenarioRoute* route = find_route(scenario, f.route);
        PDS_REQUIRE(route != nullptr && !route->from.empty());
        reverse = rep.net.add_route_between(rep.node_ids.at(route->to),
                                            rep.node_ids.at(route->from),
                                            reverse_handler);
        auto_reverse.emplace(f.route, reverse);
      }
    }
    rep.flow_routes.emplace_back(forward, reverse);
  }

  const auto make_gaps = [](const ScenarioSource& src) {
    return src.pareto_alpha > 0.0 ? pareto_gaps(src.pareto_alpha, src.gap)
                                  : exponential_gaps(src.gap);
  };

  // Rng split order: every source in file order, then every workload in
  // file order — adding flows to a scenario never perturbs the packet
  // streams of its existing sources.
  for (const auto& src : scenario.sources) {
    const RouteId route = rep.route_ids.at(src.route);
    Network& net = rep.net;
    const auto handler = [&net, route](Packet p) {
      net.inject(std::move(p), route);
    };
    switch (src.kind) {
      case ScenarioSourceKind::kRenewal:
        rep.renewals.push_back(std::make_unique<RenewalSource>(
            rep.sim, rep.ids, src.cls, make_gaps(src),
            fixed_size(src.size_bytes), rep.master.split(), handler));
        rep.renewals.back()->start(src.start);
        break;
      case ScenarioSourceKind::kMix:
        rep.mixes.push_back(std::make_unique<ClassMixSource>(
            rep.sim, rep.ids, src.fractions, make_gaps(src),
            fixed_size(src.size_bytes), rep.master.split(), handler));
        rep.mixes.back()->start(src.start);
        break;
      case ScenarioSourceKind::kCbr:
        rep.cbrs.push_back(std::make_unique<CbrFlowSource>(
            rep.sim, rep.ids, src.cls, kNoFlow - 1, src.count, src.size_bytes,
            src.interval, handler));
        rep.cbrs.back()->start(src.start);
        break;
    }
  }

  for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
    const auto& f = scenario.flows[i];
    RpcConfig rc;
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
    rep.workloads.push_back(std::make_unique<RpcWorkload>(
        rep.sim, rep.net, rep.ids, rep.flow_ids, rep.flow_routes[i].first,
        rep.flow_routes[i].second, rc, rep.master.split()));
    rep.workloads.back()->set_warmup(warmup);
  }
  rep.flow_dispatch.assign(rep.net.num_routes(), {});
  for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
    rep.flow_dispatch[rep.flow_routes[i].first].push_back(
        rep.workloads[i].get());
    if (rep.flow_routes[i].second != rep.flow_routes[i].first) {
      rep.flow_dispatch[rep.flow_routes[i].second].push_back(
          rep.workloads[i].get());
    }
  }
  for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
    rep.workloads[i]->start(scenario.flows[i].start);
  }

  if (!options.fault_plan.empty()) {
    rep.injector = std::make_unique<FaultInjector>(
        rep.sim, parse_fault_plan(options.fault_plan));
    attach_network(*rep.injector, rep.net);
    rep.injector->arm();
  }
  if (!options.control_plan.empty()) {
    rep.control = std::make_unique<ControlInjector>(
        rep.sim, parse_control_plan(options.control_plan));
    attach_network(*rep.control, rep.net);
    rep.control->arm();
  }
}

// Stops the open-loop sources after the run.
void stop_sources(Replica& rep) {
  for (auto& s : rep.renewals) s->stop();
  for (auto& s : rep.mixes) s->stop();
}

void fill_report(ScenarioReport& report, const Scenario& scenario,
                 const Replica& rep) {
  report.total_exits = rep.total_exits;
  for (std::size_t r = 0; r < scenario.routes.size(); ++r) {
    for (ClassId c = 0; c < rep.max_classes; ++c) {
      const auto& set = rep.samples[r][c];
      if (set.empty()) continue;
      report.route_stats.push_back(ScenarioReport::RouteClassStats{
          scenario.routes[r].name, c, set.count(), set.mean(),
          set.percentile(95.0)});
    }
  }
  const Network& net = rep.net;
  for (const auto& link : scenario.links) {
    const LinkId id = rep.link_ids.at(link.name);
    const Link& l = net.link(id);
    ScenarioReport::LinkStats ls;
    ls.link = link.name;
    ls.sched = to_string(link.kind);
    ls.utilization = net.utilization(id);
    ls.packets_sent = l.packets_sent();
    ls.fault_drops = l.fault_drops();
    ls.burst_drops = l.burst_drops();
    for (ClassId c = 0; c < l.scheduler().num_classes(); ++c) {
      ls.buffer_drops += l.drops(c);
    }
    ls.control_drops = l.drain_drops() + l.shed_drops();
    report.fault_drops += ls.fault_drops;
    report.shed_drops += l.shed_drops();
    report.drain_drops += l.drain_drops();
    report.link_stats.push_back(std::move(ls));
  }
  for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
    const auto& st = rep.workloads[i]->stats();
    ScenarioReport::FlowStats fs;
    fs.route = scenario.flows[i].route;
    fs.cls = scenario.flows[i].cls;
    fs.users = rep.workloads[i]->config().users;
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
  if (rep.injector) {
    report.faulted = true;
    report.fault_episodes_scheduled = rep.injector->scheduled_episodes();
    report.fault_episodes = rep.injector->episodes_completed();
  }
  if (rep.control) {
    report.controlled = true;
    report.control_episodes_scheduled = rep.control->scheduled_episodes();
    report.control_episodes = rep.control->episodes_completed();
    report.control_retunes = rep.control->retunes_applied();
    report.control_swaps = rep.control->swaps_applied();
    report.control_class_changes = rep.control->class_changes_applied();
    report.control_sheds = rep.control->sheds_applied();
  }
}

}  // namespace

ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioOptions& options) {
  PDS_CHECK(options.horizon_scale > 0.0,
            "horizon scale must be positive");
  const double until = scenario.run.until * options.horizon_scale;
  const double warmup = scenario.run.warmup * options.horizon_scale;

  Replica rep(options.seed.value_or(scenario.run.seed));
  build_replica(rep, scenario, options, warmup);

  MetricsRegistry registry;
  std::unique_ptr<MetricsSnapshotWriter> metrics;
  if (!options.metrics_out.empty()) {
    PDS_CHECK(options.metrics_window > 0.0,
              "metrics window must be positive");
    metrics = std::make_unique<MetricsSnapshotWriter>(
        rep.sim, registry, options.metrics_out, options.metrics_window,
        [&](SimTime) {
          for (const auto& [name, id] : rep.link_ids) {
            registry.gauge("link." + name + ".util")
                .set(rep.net.utilization(id));
            registry.gauge("link." + name + ".sent")
                .set(static_cast<double>(rep.net.link(id).packets_sent()));
          }
          for (std::size_t i = 0; i < rep.workloads.size(); ++i) {
            const auto& st = rep.workloads[i]->stats();
            const std::string p = "flows.f" + std::to_string(i) + ".";
            registry.gauge(p + "completed")
                .set(static_cast<double>(st.completed));
            registry.gauge(p + "failed").set(static_cast<double>(st.failed));
            registry.gauge(p + "retries")
                .set(static_cast<double>(st.retries));
            registry.gauge(p + "waiting")
                .set(static_cast<double>(rep.workloads[i]->waiting_users()));
            registry.gauge(p + "slo").set(st.slo_attainment());
          }
        });
  }

  if (options.max_events > 0 || options.max_wall_seconds > 0.0) {
    rep.sim.set_budget(options.max_events, options.max_wall_seconds);
  }

  rep.sim.run_until(until);
  stop_sources(rep);

  ScenarioReport report;
  if (metrics) {
    metrics->flush();
    report.metrics_snapshots = metrics->snapshots_written();
  }
  fill_report(report, scenario, rep);
  return report;
}

ScenarioReport run_scenario(const std::string& text,
                            const ScenarioOptions& options) {
  return run_scenario(parse_scenario(text), options);
}

ScenarioReport run_scenario(const std::string& text,
                            std::optional<std::uint64_t> seed_override) {
  ScenarioOptions options;
  options.seed = seed_override;
  return run_scenario(text, options);
}

RunReport scenario_run_report(const Scenario& scenario,
                              const ScenarioReport& report,
                              std::uint64_t seed_used) {
  RunReport doc("scenario");
  doc.set_section("scenario",
                  Json::object()
                      .set("nodes", scenario.nodes.size())
                      .set("links", scenario.links.size())
                      .set("routes", scenario.routes.size())
                      .set("sources", scenario.sources.size())
                      .set("flows", scenario.flows.size())
                      .set("until", scenario.run.until)
                      .set("warmup", scenario.run.warmup)
                      .set("seed", seed_used)
                      .set("total_exits", report.total_exits));
  Json routes = Json::array();
  for (const auto& rs : report.route_stats) {
    routes.push(Json::object()
                    .set("route", rs.route)
                    .set("class", paper_class_label(rs.cls))
                    .set("packets", rs.packets)
                    .set("mean_delay", rs.mean_delay)
                    .set("p95_delay", rs.p95_delay));
  }
  doc.set_section("routes", std::move(routes));
  Json links = Json::array();
  for (const auto& ls : report.link_stats) {
    links.push(Json::object()
                   .set("link", ls.link)
                   .set("sched", ls.sched)
                   .set("utilization", ls.utilization)
                   .set("packets_sent", ls.packets_sent)
                   .set("fault_drops", ls.fault_drops)
                   .set("burst_drops", ls.burst_drops)
                   .set("buffer_drops", ls.buffer_drops)
                   .set("control_drops", ls.control_drops));
  }
  doc.set_section("links", std::move(links));
  Json flows = Json::array();
  for (const auto& fs : report.flow_stats) {
    flows.push(Json::object()
                   .set("route", fs.route)
                   .set("class", paper_class_label(fs.cls))
                   .set("users", fs.users)
                   .set("issued", fs.issued)
                   .set("completed", fs.completed)
                   .set("failed", fs.failed)
                   .set("retries", fs.retries)
                   .set("throttled", fs.throttled)
                   .set("fct_mean", fs.fct_mean)
                   .set("fct_p50", fs.fct_p50)
                   .set("fct_p95", fs.fct_p95)
                   .set("fct_p99", fs.fct_p99)
                   .set("slo_attainment", fs.slo_attainment)
                   .set("deadline", fs.deadline));
  }
  doc.set_section("flows", std::move(flows));
  if (report.faulted) {
    doc.set_section("faults",
                    Json::object()
                        .set("scheduled", report.fault_episodes_scheduled)
                        .set("completed", report.fault_episodes)
                        .set("drops", report.fault_drops));
  }
  if (report.controlled) {
    doc.set_section("control",
                    Json::object()
                        .set("scheduled", report.control_episodes_scheduled)
                        .set("completed", report.control_episodes)
                        .set("retunes", report.control_retunes)
                        .set("swaps", report.control_swaps)
                        .set("class_changes", report.control_class_changes)
                        .set("sheds", report.control_sheds)
                        .set("shed_drops", report.shed_drops)
                        .set("drain_drops", report.drain_drops));
  }
  return doc;
}

}  // namespace pds
