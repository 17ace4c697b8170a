// Scenario files: declarative experiment descriptions for the Network
// substrate (the role ns-2 OTcl scripts played for the paper's Study B).
//
// A scenario is a line-oriented text format; '#' starts a comment.
//
//   # --- topology (graph) layer ---
//   node  <name>
//   edge  <name> from=<node> to=<node> capacity=<bytes/tu>
//         sched=<wtp|bpr|...> sdp=<s1,s2,...> [burst=<k>] [buffer=<pkts>]
//   topology line     n=<k>            capacity=.. sched=.. sdp=.. [prefix=<p>]
//   topology ring     n=<k>            capacity=.. sched=.. sdp=.. [prefix=<p>]
//   topology fat_tree k=<even k>       capacity=.. sched=.. sdp=.. [prefix=<p>]
//   topology two_tier cores=<n> pops=<m> capacity=.. sched=.. sdp=.. [prefix=<p>]
//
//   # --- links and routes ---
//   link  <name> capacity=<bytes/tu> sched=<wtp|bpr|...> sdp=<s1,s2,...>
//         [burst=<k>] [buffer=<pkts>]
//   route <name> <link> [<link> ...]          # explicit link path
//   route <name> from=<node> to=<node>        # static shortest-path routing
//
//   # --- traffic: open-loop packet sources ---
//   source renewal <route> class=<c> gap=<mean tu> size=<bytes>
//          [pareto=<alpha> | poisson] [start=<t>]
//   source mix <route> fractions=<f1,f2,...> gap=<mean> size=<bytes>
//          [pareto=<alpha> | poisson] [start=<t>]
//   source cbr <route> class=<c> count=<n> size=<bytes> interval=<tu>
//          [start=<t>]
//
//   # --- traffic: closed-loop RPC users (net/flows.hpp) ---
//   flows <route> class=<c> users=<n> size=<bytes> think=<mean tu>
//         [request=<k>] [response=<k>] [deadline=<tu>]
//         [rto=<tu>] [retries=<n>] [backoff=<m>] [rto_cap=<tu>]
//         [throttle=<tokens>] [throttle_ratio=<r>]
//         [reverse=<route>] [start=<t>]
//
//   run   until=<t> [warmup=<t>] [seed=<n>]
//
// Directives reference only names declared on EARLIER lines (the grammar is
// single-pass): an edge needs its nodes, a route its links or nodes, a
// `flows` its route. `topology` expands to nodes plus one directed link per
// direction of every generated edge, named "<from>><to>"; generated names
// collide with manual ones like any duplicate. A routed `route` uses the
// minimum-hop path over the edges declared so far, ties broken by the
// lexicographically smallest link-id (= declaration-order) sequence — see
// the routing determinism rule in net/topology.hpp. `flows` needs a
// reverse direction for the responses: either an explicit `reverse=`
// route, or (for from=/to= routes) the auto-computed shortest path back.
//
// parse_scenario validates structure (names, references, parameter sets,
// reachability) and values (finite numbers, integers in range, capacity >
// 0, positive non-decreasing sdp=, a known sched=, positive gap= and
// interval=, count >= 1, pareto > 1, fractions= non-negative and not all
// zero, non-negative start/warmup/deadline/rto_cap/throttle, a positive
// throttle_ratio when throttled, until > warmup) and throws
// std::invalid_argument with the offending line number (token rules in
// util/line_lexer.hpp), so a value that parses also runs; run_scenario
// executes it and reports per-route
// per-class end-to-end queueing delays, per-link utilization, and — when
// the scenario declares flows — per-workload flow-completion-time
// percentiles and SLO attainment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sched/factory.hpp"

namespace pds {

class RunReport;

enum class ScenarioSourceKind { kRenewal, kMix, kCbr };

struct ScenarioLink {
  std::string name;
  double capacity = 0.0;
  SchedulerKind kind = SchedulerKind::kWtp;
  std::vector<double> sdp;
  // Packets drained per scheduler decision (burst= option; 1 = classic
  // single-packet service, which keeps traces byte-identical).
  std::uint32_t burst = 1;
  // Finite shared packet buffer (buffer= option). 0 — the default — keeps
  // the paper's lossless link; > 0 wraps the link in a drop-tail LossyLink
  // (Network::make_lossy), which also lets fault `loss` episodes target it.
  std::uint64_t buffer = 0;
  // Node binding for graph links (edge/topology directives); both empty for
  // unbound `link` directives.
  std::string from;
  std::string to;
};

struct ScenarioRoute {
  std::string name;
  std::vector<std::string> links;  // explicit form; empty when routed
  std::string from;                // routed form; empty when explicit
  std::string to;
};

struct ScenarioSource {
  ScenarioSourceKind kind = ScenarioSourceKind::kRenewal;
  std::string route;
  ClassId cls = 0;                 // renewal / cbr
  std::vector<double> fractions;   // mix
  double gap = 0.0;                // renewal / mix mean interarrival
  std::uint32_t size_bytes = 0;
  double pareto_alpha = 0.0;       // 0 => poisson
  std::uint32_t count = 0;         // cbr
  double interval = 0.0;           // cbr
  double start = 0.0;
};

// One `flows` directive: a closed-loop RPC workload (see net/flows.hpp for
// the model and field semantics).
struct ScenarioFlows {
  std::string route;
  std::string reverse;  // empty => auto shortest path to->from
  double start = 0.0;
  ClassId cls = 0;
  std::uint32_t users = 1;
  std::uint32_t request_packets = 1;
  std::uint32_t response_packets = 1;
  std::uint32_t size_bytes = 0;
  double think_mean = 0.0;
  double deadline = 0.0;
  double rto = 0.0;
  std::uint32_t max_retries = 0;
  double backoff = 2.0;
  double rto_cap = 0.0;
  double throttle_tokens = 0.0;
  double throttle_ratio = 0.1;
};

struct ScenarioRun {
  double until = 0.0;
  double warmup = 0.0;
  std::uint64_t seed = 1;
};

struct Scenario {
  std::vector<std::string> nodes;
  std::vector<ScenarioLink> links;
  std::vector<ScenarioRoute> routes;
  std::vector<ScenarioSource> sources;
  std::vector<ScenarioFlows> flows;
  ScenarioRun run;
};

Scenario parse_scenario(const std::string& text);

struct ScenarioReport {
  struct RouteClassStats {
    std::string route;
    ClassId cls;
    std::uint64_t packets = 0;
    double mean_delay = 0.0;   // end-to-end queueing, time units
    double p95_delay = 0.0;
  };
  struct LinkStats {
    std::string link;
    std::string sched;               // scheduler kind ("wtp", "bpr", ...)
    double utilization = 0.0;
    std::uint64_t packets_sent = 0;
    std::uint64_t fault_drops = 0;   // arrivals dropped during outages
    std::uint64_t burst_drops = 0;   // lossy-link burst loss episodes
    std::uint64_t buffer_drops = 0;  // drop-tail overflow (buffer= links)
    std::uint64_t control_drops = 0; // class drains + overload sheds
  };
  // One row per `flows` directive, in file order.
  struct FlowStats {
    std::string route;
    ClassId cls = 0;
    std::uint32_t users = 0;
    std::uint64_t issued = 0;      // all RPCs started (scored or not)
    std::uint64_t completed = 0;   // scored (post-warmup) completions
    std::uint64_t failed = 0;      // scored failures (retries gave up)
    std::uint64_t retries = 0;
    std::uint64_t throttled = 0;   // retries suppressed by the token budget
    double fct_mean = 0.0;         // 0 when no scored completion
    double fct_p50 = 0.0;
    double fct_p95 = 0.0;
    double fct_p99 = 0.0;
    double slo_attainment = 1.0;   // over scored RPCs
    double deadline = 0.0;
  };
  std::vector<RouteClassStats> route_stats;  // only (route,class) with data
  std::vector<LinkStats> link_stats;
  std::vector<FlowStats> flow_stats;
  std::uint64_t total_exits = 0;
  bool faulted = false;                      // a fault plan was armed
  std::uint64_t fault_episodes_scheduled = 0;
  std::uint64_t fault_episodes = 0;          // completed
  std::uint64_t fault_drops = 0;             // summed over links
  std::uint64_t metrics_snapshots = 0;
  bool controlled = false;                   // a control plan was armed
  std::uint64_t control_episodes_scheduled = 0;
  std::uint64_t control_episodes = 0;        // completed
  std::uint64_t control_retunes = 0;
  std::uint64_t control_swaps = 0;
  std::uint64_t control_class_changes = 0;
  std::uint64_t control_sheds = 0;
  std::uint64_t shed_drops = 0;              // summed over links
  std::uint64_t drain_drops = 0;             // summed over links
};

// Execution knobs beyond the file itself (all optional).
struct ScenarioOptions {
  std::optional<std::uint64_t> seed;   // replaces the file's seed
  std::string fault_plan;              // fault-plan grammar text; "" = none
  std::string control_plan;            // control-plan grammar; "" = none
  std::optional<std::uint32_t> users;  // override users= of every flows
  double horizon_scale = 1.0;          // scales until/warmup (smoke runs)
  std::uint64_t max_events = 0;        // Simulator event budget; 0 = off
  double max_wall_seconds = 0.0;       // wall budget; 0 = off
  std::string metrics_out;             // windowed metrics series (.csv/.jsonl)
  double metrics_window = 5000.0;      // tu per metrics window
};

// Parses and executes; `seed_override`, when set, replaces the file's seed.
ScenarioReport run_scenario(const std::string& text,
                            std::optional<std::uint64_t> seed_override = {});
// Full-options variants (the string form parses first).
ScenarioReport run_scenario(const std::string& text,
                            const ScenarioOptions& options);
ScenarioReport run_scenario(const Scenario& scenario,
                            const ScenarioOptions& options);

// Unified run-report document (pds.run_report/1, kind "scenario") with
// scenario/routes/links/flows sections plus faults/control when the
// corresponding plan was armed. Deterministic: derived from simulation
// state only.
RunReport scenario_run_report(const Scenario& scenario,
                              const ScenarioReport& report,
                              std::uint64_t seed_used);

}  // namespace pds
