// Routed graph fabric of differentiated-services links.
//
// Network is a graph of named Nodes connected by directed edges, each edge
// an output Link with its own scheduler instance and capacity. Routes are
// either caller-supplied explicit link sequences (the original API; Study B
// builds the Figure 6 chain with it) or computed by static shortest-path
// routing between two nodes (add_route_between).
//
// Routing determinism rule: a computed route is the minimum-hop path; among
// equal-hop paths the lexicographically smallest link-id sequence wins.
// Implementation: BFS with each node's out-edges scanned in ascending link
// id and the frontier drained FIFO, so every node's parent edge is fixed by
// the first (smallest-path) discovery. The rule depends only on the graph,
// never on memory layout or iteration order of hash containers, so routed
// runs keep the repo-wide byte-identical determinism contract.
//
// A packet injected on a route traverses its links in order, accumulating
// queueing delay in cum_queueing, and the route's exit handler fires when
// it leaves the last link. Per-hop class-based differentiation composes
// over any topology the same way it does over the chain — the end-to-end
// consistency questions of Section 6 can therefore be asked of merging,
// diverging and shared-link paths (see the topology tests and the
// merging-paths bench).
//
// TopologySpec + the generators (line/ring/fat_tree/two_tier) describe
// standard graph shapes by node-name pairs; build_topology instantiates a
// spec onto a Network with one directed link per direction of every edge.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dropper/lossy_link.hpp"
#include "dsim/simulator.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"

namespace pds {

class ControlInjector;
class FaultInjector;

using LinkId = std::uint32_t;
using NodeId = std::uint32_t;

// Directed edge labelled with the link that realizes it, for path
// computation (shared by Network and the scenario parser's validation).
struct GraphEdge {
  std::uint32_t link = 0;
  NodeId from = 0;
  NodeId to = 0;
};

// Minimum-hop path of link ids from `from` to `to` over directed `edges`,
// ties broken by lexicographically smallest link-id sequence (see the
// routing determinism rule above). Returns an empty vector when `to` is
// unreachable or equals `from`.
std::vector<std::uint32_t> shortest_path_links(NodeId num_nodes,
                                               const std::vector<GraphEdge>& edges,
                                               NodeId from, NodeId to);

class Network {
 public:
  // Fired when a packet completes its route. `p.cum_queueing` holds the
  // total queueing delay over every traversed hop.
  using ExitHandler = std::function<void(const Packet& p, SimTime now)>;

  explicit Network(Simulator& sim);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Topology (graph) layer -------------------------------------------

  // Adds a named node. Names must be unique and non-empty. Nodes may be
  // added only before the first injection.
  NodeId add_node(std::string name);

  // Adds a directed edge from `from` to `to`, realized by a fresh output
  // link with its own scheduler instance. The returned LinkId doubles as
  // the edge id for routing.
  LinkId add_edge(NodeId from, NodeId to, SchedulerKind kind,
                  const SchedulerConfig& sched_config, double capacity,
                  std::string name = "");

  // Shortest path (routing determinism rule above); empty if unreachable.
  std::vector<LinkId> shortest_path(NodeId from, NodeId to) const;

  // Registers the shortest path from `from` to `to` as a route. Throws
  // std::invalid_argument when `to` is unreachable from `from`.
  RouteId add_route_between(NodeId from, NodeId to, ExitHandler on_exit);

  std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(node_names_.size());
  }
  const std::string& node_name(NodeId id) const;
  std::optional<NodeId> find_node(const std::string& name) const;

  // --- Link / explicit-route layer (the original API) -------------------

  // Adds an output link with its own scheduler instance, not bound to any
  // node pair. Links may be added only before the first injection.
  LinkId add_link(SchedulerKind kind, const SchedulerConfig& sched_config,
                  double capacity, std::string name = "");

  // Registers a source route (a non-empty sequence of existing link ids;
  // repeated links are allowed — e.g. hairpins in test topologies).
  RouteId add_route(std::vector<LinkId> path, ExitHandler on_exit);

  // Injects a packet at the first hop of `route`.
  void inject(Packet p, RouteId route);

  std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  std::uint32_t num_routes() const noexcept {
    return static_cast<std::uint32_t>(routes_.size());
  }
  const Link& link(LinkId id) const;
  const std::string& link_name(LinkId id) const;
  const std::vector<LinkId>& route_path(RouteId id) const;

  // Mutable access for fault injection (attach_network registers every
  // link with a FaultInjector under its name).
  Link& link_mut(LinkId id);

  // Construction metadata, kept per link so the control plane can attach
  // every link with the kind/config swap replacements are built from.
  SchedulerKind link_kind(LinkId id) const;
  const SchedulerConfig& link_config(LinkId id) const;
  double link_capacity(LinkId id) const;

  // Wraps link `id` in a finite drop-tail buffer (LossyLink, kDropIncoming):
  // arrivals that would exceed `buffer_packets` queued packets are dropped
  // and counted by the LossyLink (drops()/burst_drops()). Call before the
  // first injection; converting a link twice is an error. The inner Link is
  // rebuilt, so convert before attaching probes or injectors.
  void make_lossy(LinkId id, std::uint64_t buffer_packets);

  // The loss stage of a converted link; nullptr for lossless links.
  LossyLink* lossy(LinkId id);
  const LossyLink* lossy(LinkId id) const;

  // Utilization of a link measured from time 0 to `now`.
  double utilization(LinkId id) const;

 private:
  struct RouteState {
    std::vector<LinkId> path;
    ExitHandler on_exit;
  };

  void forward(Packet&& p);
  // Arrival entry point for link `id`: the loss stage when the link has
  // one, the plain Link otherwise.
  void deliver(Packet&& p, LinkId id);

  Simulator& sim_;
  // Backs every edge's class rings; declared before the schedulers so their
  // queues release into a still-live arena at destruction.
  PacketArena arena_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  // Exactly one of links_[id] / lossies_[id] is non-null per link: make_lossy
  // moves a link's service plane inside a LossyLink (which owns its Link).
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<LossyLink>> lossies_;
  std::vector<SchedulerKind> kinds_;
  std::vector<SchedulerConfig> configs_;  // arena pointer already defaulted
  std::vector<double> capacities_;
  std::vector<std::string> names_;
  std::vector<RouteState> routes_;
  std::vector<std::string> node_names_;
  std::vector<GraphEdge> edges_;  // ascending link id (append-only)
  bool injected_ = false;
};

// A graph shape by node names: every listed edge is instantiated in BOTH
// directions (two independent links) by build_topology; link names follow
// "<from>><to>".
struct TopologySpec {
  std::vector<std::string> nodes;
  std::vector<std::pair<std::string, std::string>> edges;  // undirected
};

// n nodes "<prefix>0".."<prefix>{n-1}" in a path (n >= 2).
TopologySpec make_line_topology(std::uint32_t n,
                                const std::string& prefix = "n");
// Same, plus the wrap-around edge (n >= 3).
TopologySpec make_ring_topology(std::uint32_t n,
                                const std::string& prefix = "n");
// k-ary fat tree (k even, >= 2): (k/2)^2 cores "core<i>", per pod p
// (k pods) k/2 aggregation "p<p>agg<j>" and k/2 edge switches "p<p>edge<i>";
// full bipartite edge<->agg inside a pod, agg j uplinks to cores
// [j*k/2, (j+1)*k/2).
TopologySpec make_fat_tree_topology(std::uint32_t k);
// Small ISP-like two-tier graph: `cores` fully-meshed "core<i>", and `pops`
// dual-homed PoPs "pop<i>" attached to core i%cores and core (i+1)%cores.
TopologySpec make_two_tier_topology(std::uint32_t cores, std::uint32_t pops);

// Instantiates `spec` onto `net`: one node per name, one directed link per
// direction of every edge, all with the same scheduler kind/config and
// capacity. `prefix` is prepended to every node (and derived link) name.
void build_topology(Network& net, const TopologySpec& spec,
                    SchedulerKind kind, const SchedulerConfig& sched_config,
                    double capacity, const std::string& prefix = "");

// Register every link of `net` with an injector under its link_name(), in
// link-id order; fault targets with a drop stage attach as LossyLinks, and
// control targets carry the stored kind/config swaps are built from.
void attach_network(FaultInjector& injector, Network& net);
void attach_network(ControlInjector& injector, Network& net);

}  // namespace pds
