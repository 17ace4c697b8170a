#include "net/topology.hpp"

#include <algorithm>
#include <deque>

#include "ctrl/control_injector.hpp"
#include "fault/fault_injector.hpp"
#include "util/contracts.hpp"

namespace pds {

std::vector<std::uint32_t> shortest_path_links(
    NodeId num_nodes, const std::vector<GraphEdge>& edges, NodeId from,
    NodeId to) {
  PDS_CHECK(from < num_nodes && to < num_nodes,
            "shortest_path endpoints must be existing nodes");
  if (from == to) return {};
  // Adjacency in ascending link id per node: edges are appended with
  // monotonically increasing link ids, so a stable bucket fill preserves
  // the order needed by the routing determinism rule.
  std::vector<std::vector<const GraphEdge*>> adj(num_nodes);
  for (const GraphEdge& e : edges) {
    PDS_REQUIRE(e.from < num_nodes && e.to < num_nodes);
    adj[e.from].push_back(&e);
  }
  for (auto& out : adj) {
    std::sort(out.begin(), out.end(),
              [](const GraphEdge* a, const GraphEdge* b) {
                return a->link < b->link;
              });
  }
  // BFS; each node's parent edge is fixed by the first discovery. Nodes
  // are enqueued in lexicographic order of their chosen paths (out-edges
  // scanned in ascending link id, FIFO frontier), so the parent chain of
  // `to` is the lexicographically smallest minimum-hop path.
  std::vector<const GraphEdge*> parent(num_nodes, nullptr);
  std::vector<bool> seen(num_nodes, false);
  std::deque<NodeId> frontier;
  seen[from] = true;
  frontier.push_back(from);
  while (!frontier.empty() && !seen[to]) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (const GraphEdge* e : adj[node]) {
      if (seen[e->to]) continue;
      seen[e->to] = true;
      parent[e->to] = e;
      frontier.push_back(e->to);
    }
  }
  if (!seen[to]) return {};
  std::vector<std::uint32_t> path;
  for (const GraphEdge* e = parent[to]; e != nullptr; e = parent[e->from]) {
    path.push_back(e->link);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Network::Network(Simulator& sim) : sim_(sim) {}

NodeId Network::add_node(std::string name) {
  PDS_CHECK(!injected_, "cannot add nodes after the first injection");
  PDS_CHECK(!name.empty(), "node needs a non-empty name");
  for (const auto& existing : node_names_) {
    PDS_CHECK(existing != name, "duplicate node name " + name);
  }
  node_names_.push_back(std::move(name));
  return static_cast<NodeId>(node_names_.size() - 1);
}

LinkId Network::add_edge(NodeId from, NodeId to, SchedulerKind kind,
                         const SchedulerConfig& sched_config, double capacity,
                         std::string name) {
  PDS_CHECK(from < node_names_.size() && to < node_names_.size(),
            "edge endpoints must be existing nodes");
  PDS_CHECK(from != to, "self-loop edges are not allowed");
  if (name.empty()) name = node_names_[from] + ">" + node_names_[to];
  const LinkId id = add_link(kind, sched_config, capacity, std::move(name));
  edges_.push_back(GraphEdge{id, from, to});
  return id;
}

std::vector<LinkId> Network::shortest_path(NodeId from, NodeId to) const {
  return shortest_path_links(num_nodes(), edges_, from, to);
}

RouteId Network::add_route_between(NodeId from, NodeId to,
                                   ExitHandler on_exit) {
  auto path = shortest_path(from, to);
  PDS_CHECK(!path.empty(), "no path from node " + node_name(from) +
                               " to node " + node_name(to));
  return add_route(std::move(path), std::move(on_exit));
}

const std::string& Network::node_name(NodeId id) const {
  PDS_CHECK(id < node_names_.size(), "unknown node");
  return node_names_[id];
}

std::optional<NodeId> Network::find_node(const std::string& name) const {
  for (NodeId id = 0; id < node_names_.size(); ++id) {
    if (node_names_[id] == name) return id;
  }
  return std::nullopt;
}

LinkId Network::add_link(SchedulerKind kind,
                         const SchedulerConfig& sched_config, double capacity,
                         std::string name) {
  PDS_CHECK(!injected_, "cannot add links after the first injection");
  const auto id = static_cast<LinkId>(links_.size());
  SchedulerConfig config = sched_config;
  if (config.arena == nullptr) config.arena = &arena_;
  schedulers_.push_back(make_scheduler(kind, config));
  links_.push_back(std::make_unique<Link>(
      sim_, *schedulers_.back(), capacity,
      [this](Packet&& p, SimTime, SimTime) { forward(std::move(p)); }));
  kinds_.push_back(kind);
  configs_.push_back(std::move(config));
  names_.push_back(name.empty() ? "link" + std::to_string(id)
                                : std::move(name));
  return id;
}

void Network::make_lossy(LinkId id, std::uint64_t buffer_packets) {
  PDS_CHECK(!injected_, "cannot convert links after the first injection");
  PDS_CHECK(id < links_.size(), "unknown link");
  links_[id]->set_buffer(buffer_packets);
}

Link* Network::lossy(LinkId id) {
  PDS_CHECK(id < links_.size(), "unknown link");
  return links_[id]->has_buffer() ? links_[id].get() : nullptr;
}

const Link* Network::lossy(LinkId id) const {
  PDS_CHECK(id < links_.size(), "unknown link");
  return links_[id]->has_buffer() ? links_[id].get() : nullptr;
}

SchedulerKind Network::link_kind(LinkId id) const {
  PDS_CHECK(id < kinds_.size(), "unknown link");
  return kinds_[id];
}

const SchedulerConfig& Network::link_config(LinkId id) const {
  PDS_CHECK(id < configs_.size(), "unknown link");
  return configs_[id];
}

RouteId Network::add_route(std::vector<LinkId> path, ExitHandler on_exit) {
  PDS_CHECK(!path.empty(), "route needs at least one link");
  PDS_CHECK(static_cast<bool>(on_exit), "null exit handler");
  for (const LinkId id : path) {
    PDS_CHECK(id < links_.size(), "route references unknown link");
  }
  routes_.push_back(RouteState{std::move(path), std::move(on_exit)});
  return static_cast<RouteId>(routes_.size() - 1);
}

void Network::inject(Packet p, RouteId route) {
  PDS_CHECK(route < routes_.size(), "unknown route");
  PDS_CHECK(p.hops_done == 0, "packet already travelled; reset hops_done");
  injected_ = true;
  p.route = route;
  links_[routes_[route].path.front()]->arrive(std::move(p));
}

void Network::forward(Packet&& p) {
  PDS_REQUIRE(p.route < routes_.size());
  const RouteState& route = routes_[p.route];
  PDS_REQUIRE(p.hops_done <= route.path.size());
  if (p.hops_done < route.path.size()) {
    links_[route.path[p.hops_done]]->arrive(std::move(p));
  } else {
    route.on_exit(p, sim_.now());
  }
}

const Link& Network::link(LinkId id) const {
  PDS_CHECK(id < links_.size(), "unknown link");
  return *links_[id];
}

Link& Network::link_mut(LinkId id) {
  PDS_CHECK(id < links_.size(), "unknown link");
  return *links_[id];
}

const std::string& Network::link_name(LinkId id) const {
  PDS_CHECK(id < links_.size(), "unknown link");
  return names_[id];
}

const std::vector<LinkId>& Network::route_path(RouteId id) const {
  PDS_CHECK(id < routes_.size(), "unknown route");
  return routes_[id].path;
}

double Network::utilization(LinkId id) const {
  PDS_CHECK(id < links_.size(), "unknown link");
  if (sim_.now() <= 0.0) return 0.0;
  return link(id).busy_time() / sim_.now();
}

// --------------------------------------------------------------- generators

TopologySpec make_line_topology(std::uint32_t n, const std::string& prefix) {
  PDS_CHECK(n >= 2, "line topology needs at least 2 nodes");
  TopologySpec spec;
  for (std::uint32_t i = 0; i < n; ++i) {
    spec.nodes.push_back(prefix + std::to_string(i));
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    spec.edges.emplace_back(spec.nodes[i], spec.nodes[i + 1]);
  }
  return spec;
}

TopologySpec make_ring_topology(std::uint32_t n, const std::string& prefix) {
  PDS_CHECK(n >= 3, "ring topology needs at least 3 nodes");
  TopologySpec spec = make_line_topology(n, prefix);
  spec.edges.emplace_back(spec.nodes[n - 1], spec.nodes[0]);
  return spec;
}

TopologySpec make_fat_tree_topology(std::uint32_t k) {
  PDS_CHECK(k >= 2 && k % 2 == 0, "fat_tree needs an even k >= 2");
  const std::uint32_t half = k / 2;
  TopologySpec spec;
  // Cores first so their small link ids make core routing deterministic
  // reading top-down; then per-pod agg and edge switches.
  for (std::uint32_t c = 0; c < half * half; ++c) {
    spec.nodes.push_back("core" + std::to_string(c));
  }
  for (std::uint32_t p = 0; p < k; ++p) {
    const std::string pod = "p" + std::to_string(p);
    for (std::uint32_t j = 0; j < half; ++j) {
      spec.nodes.push_back(pod + "agg" + std::to_string(j));
    }
    for (std::uint32_t i = 0; i < half; ++i) {
      spec.nodes.push_back(pod + "edge" + std::to_string(i));
    }
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::string agg = pod + "agg" + std::to_string(j);
      for (std::uint32_t i = 0; i < half; ++i) {
        spec.edges.emplace_back(pod + "edge" + std::to_string(i), agg);
      }
      for (std::uint32_t c = j * half; c < (j + 1) * half; ++c) {
        spec.edges.emplace_back(agg, "core" + std::to_string(c));
      }
    }
  }
  return spec;
}

TopologySpec make_two_tier_topology(std::uint32_t cores, std::uint32_t pops) {
  PDS_CHECK(cores >= 1, "two_tier needs at least 1 core");
  PDS_CHECK(pops >= 1, "two_tier needs at least 1 pop");
  TopologySpec spec;
  for (std::uint32_t c = 0; c < cores; ++c) {
    spec.nodes.push_back("core" + std::to_string(c));
  }
  for (std::uint32_t p = 0; p < pops; ++p) {
    spec.nodes.push_back("pop" + std::to_string(p));
  }
  for (std::uint32_t a = 0; a < cores; ++a) {
    for (std::uint32_t b = a + 1; b < cores; ++b) {
      spec.edges.emplace_back(spec.nodes[a], spec.nodes[b]);
    }
  }
  for (std::uint32_t p = 0; p < pops; ++p) {
    const std::string& pop = spec.nodes[cores + p];
    spec.edges.emplace_back(pop, spec.nodes[p % cores]);
    if (cores > 1 && (p + 1) % cores != p % cores) {
      spec.edges.emplace_back(pop, spec.nodes[(p + 1) % cores]);
    }
  }
  return spec;
}

void build_topology(Network& net, const TopologySpec& spec,
                    SchedulerKind kind, const SchedulerConfig& sched_config,
                    double capacity, const std::string& prefix) {
  std::vector<NodeId> ids;
  ids.reserve(spec.nodes.size());
  for (const auto& name : spec.nodes) ids.push_back(net.add_node(prefix + name));
  const auto find = [&](const std::string& name) {
    const auto id = net.find_node(prefix + name);
    PDS_CHECK(id.has_value(), "topology edge names unknown node " + name);
    return *id;
  };
  for (const auto& [a, b] : spec.edges) {
    const NodeId na = find(a), nb = find(b);
    net.add_edge(na, nb, kind, sched_config, capacity);
    net.add_edge(nb, na, kind, sched_config, capacity);
  }
}

void attach_network(FaultInjector& injector, Network& net) {
  for (LinkId id = 0; id < net.num_links(); ++id) {
    injector.attach(net.link_name(id), net.link_mut(id));
  }
}

void attach_network(ControlInjector& injector, Network& net) {
  for (LinkId id = 0; id < net.num_links(); ++id) {
    injector.attach(net.link_name(id), net.link_mut(id), net.link_kind(id),
                    net.link_config(id));
  }
}

}  // namespace pds
