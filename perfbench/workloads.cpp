#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/report.hpp"

namespace perfbench {

namespace {

// ---------------------------------------------------------------------------
// single_link_wtp — the paper's Study A (Sec. 5, Fig. 1): one link at
// rho = 0.95, WTP with SDPs 1,2,4,8, the 40/30/20/10 class mix, Pareto(1.9)
// interarrivals, a fixed set of seeds run on the exp pool.
// Loads: sched (WTP priority scan over deep class queues), queueing, traffic
// (four renewal sources), the dsim pop with ~5 pending events, and the exp
// pool's fan-out. Bypasses: net (no routes, forwarding or flows). Four
// classes, like every shipped study, so the scalar scan path is measured.
// ---------------------------------------------------------------------------
constexpr std::uint32_t kStudyReplications = 32;
constexpr double kStudySimTime = 2.0e6;
constexpr double kStudyUtilTolerance = 0.02;   // |rho_measured - 0.95|
constexpr double kStudyRatioTolerance = 0.25;  // relative, vs the SDP ratio 2

// ---------------------------------------------------------------------------
// fabric_rpc — a generated k=8 fat tree (80 nodes, 512 directed links, WTP
// with SDPs 1,2,4). Every edge switch runs closed-loop RPC users to the same
// edge index in the next pod over an explicit 4-hop path spread across the
// aggregation and core layers, with long think times (over a thousand
// users), plus one open-loop class-mix background source. Sized below the
// knee: no RPC fails and the hottest link stays well under saturation.
// Loads: the dsim queue (thousands of pending think/RTO timers and in-flight
// packets), net forwarding and RpcWorkload bookkeeping, and a working set of
// 512 schedulers. Each class queue stays shallow, so sched does little.
// ---------------------------------------------------------------------------
constexpr std::uint32_t kRpcK = 8;
constexpr std::uint32_t kRpcUsersPerRoute = 40;
constexpr double kRpcThink = 15000.0;
constexpr double kRpcUntil = 3.0e6;

// ---------------------------------------------------------------------------
// fabric_faults — the shipped k=4 fat_tree.pds fabric and flows with
// drop-tail buffer= links, under a fault plan (hold and drop outages,
// degrade, stall, loss bursts) and a control plan (retunes, a swap to HPD
// and its g retune, a swap to BPR, overload sheds, a class drain/re-add)
// whose episodes are spread over the whole horizon. The premium flow's
// retries and retry throttle are active. The timed call includes rendering
// the run report.
// Loads: the same sched/net/dsim layers as fabric_rpc, but on their exception
// paths — hold-outage backlogs draining in bursts, dropper drops, RTO timers
// firing, backlogs handed over during swaps — plus the fault/ctrl plan
// engines and obs report rendering.
// ---------------------------------------------------------------------------
constexpr double kFaultsUntil = 3.0e6;
constexpr std::uint32_t kFaultsBuffer = 40;

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string name(const char* prefix, std::uint32_t index) {
  std::string out = prefix;
  out += std::to_string(index);
  return out;
}

std::string fabric_rpc_scenario(std::uint64_t seed) {
  const std::uint32_t half = kRpcK / 2;
  std::ostringstream s;
  s << "topology fat_tree k=" << kRpcK
    << " capacity=39.375 sched=wtp sdp=1,2,4\n";
  // Edge i of pod p talks to edge i of pod q = p+1 through agg i and core
  // half*i + p%half, so routes fan out over the aggregation and core layers
  // instead of all taking the smallest-id shortest path.
  for (std::uint32_t p = 0; p < kRpcK; ++p) {
    const std::uint32_t q = (p + 1) % kRpcK;
    for (std::uint32_t i = 0; i < half; ++i) {
      const std::string src = name("p", p);
      const std::string dst = name("p", q);
      const std::string e = name("edge", i);
      const std::string a = name("agg", i);
      const std::string core = name("core", half * i + p % half);
      const std::string id = std::to_string(p) + "_" + std::to_string(i);
      s << "route f" << id << " " << src << e << ">" << src << a << " " << src
        << a << ">" << core << " " << core << ">" << dst << a << " " << dst
        << a << ">" << dst << e << "\n";
      s << "route b" << id << " " << dst << e << ">" << dst << a << " " << dst
        << a << ">" << core << " " << core << ">" << src << a << " " << src
        << a << ">" << src << e << "\n";
    }
  }
  for (std::uint32_t p = 0; p < kRpcK; ++p) {
    for (std::uint32_t i = 0; i < half; ++i) {
      const std::uint32_t cls = (p * half + i) % 3;
      const std::string id = std::to_string(p) + "_" + std::to_string(i);
      s << "flows f" << id << " class=" << cls << " users=" << kRpcUsersPerRoute
        << " size=441 think=" << num(kRpcThink)
        << " request=2 response=2 reverse=b" << id;
      if (cls == 2) {
        s << " deadline=600 rto=3000 retries=2 backoff=2";
      } else {
        s << " deadline=" << (cls == 1 ? 800 : 1200);
      }
      s << "\n";
    }
  }
  s << "route bg from=p0edge1 to=p" << kRpcK / 2 << "edge2\n";
  s << "source mix bg fractions=50,30,20 gap=60 size=441 pareto=1.9\n";
  s << "run until=" << num(kRpcUntil) << " warmup=" << num(kRpcUntil / 10)
    << " seed=" << seed << "\n";
  return s.str();
}

std::string fabric_faults_scenario(std::uint64_t seed) {
  std::ostringstream s;
  s << "topology fat_tree k=4 capacity=39.375 sched=wtp sdp=1,2,4 buffer="
    << kFaultsBuffer << "\n"
    << "route rpc01 from=p0edge0 to=p1edge0\n"
    << "route rpc23 from=p2edge0 to=p3edge1\n"
    << "route intra from=p0edge0 to=p0edge1\n"
    << "flows rpc01 class=2 users=24 size=441 think=1500 request=2 "
       "response=2 deadline=450 rto=900 retries=2 backoff=2 throttle=50 "
       "throttle_ratio=0.2\n"
    << "flows rpc23 class=1 users=24 size=441 think=1500 request=2 "
       "response=2 deadline=140\n"
    << "flows intra class=0 users=12 size=600 think=1500 request=1 "
       "response=4 deadline=400\n"
    << "route bg from=p0edge1 to=p1edge1\n"
    << "source mix bg fractions=60,30,10 gap=30 size=441 pareto=1.9\n"
    << "run until=" << num(kFaultsUntil) << " warmup=" << num(kFaultsUntil / 10)
    << " seed=" << seed << "\n";
  return s.str();
}

// Episodes at fixed fractions of the horizon, all ending before it.
std::string fabric_faults_fault_plan(std::uint64_t seed) {
  const double h = kFaultsUntil;
  std::ostringstream s;
  s << "seed " << seed << "\n"
    << "down p0agg0>core0 at=" << num(0.05 * h) << " for=3000 mode=hold\n"
    << "down core0>p1agg0 at=" << num(0.15 * h) << " for=2000 mode=drop\n"
    << "degrade core0* at=" << num(0.25 * h) << " for=" << num(0.05 * h)
    << " factor=0.5\n"
    << "stall p0edge0>p0agg0 at=" << num(0.35 * h) << " for=1500\n"
    << "loss p0agg0>core0 at=" << num(0.45 * h) << " for=" << num(0.05 * h)
    << " rate=0.05\n"
    << "down p2agg0>core0 at=" << num(0.55 * h) << " for=3000 mode=hold\n"
    << "degrade p0agg0>p0edge1 at=" << num(0.65 * h) << " for="
    << num(0.05 * h) << " factor=0.6\n"
    << "stall core0>p3agg0 at=" << num(0.75 * h) << " for=2000\n"
    << "loss p1agg0>p1edge0 at=" << num(0.85 * h) << " for=" << num(0.05 * h)
    << " rate=0.05\n";
  return s.str();
}

std::string fabric_faults_control_plan(std::uint64_t seed) {
  const double h = kFaultsUntil;
  std::ostringstream s;
  s << "seed " << seed << "\n"
    << "retune p0agg0>core0 at=" << num(0.10 * h) << " w=1,3,9\n"
    << "shed p0agg0>core0 at=" << num(0.20 * h) << " for=" << num(0.10 * h)
    << " watermark=12 classes=1\n"
    << "swap core0>p1agg0 at=" << num(0.30 * h) << " sched=hpd\n"
    << "retune core0>p1agg0 at=" << num(0.40 * h) << " g=0.5\n"
    << "class p0edge1>p0agg0 at=" << num(0.50 * h) << " drain=0\n"
    << "class p0edge1>p0agg0 at=" << num(0.60 * h) << " add=0\n"
    << "swap p2agg0>core0 at=" << num(0.70 * h) << " sched=bpr\n"
    << "shed core0>p3agg0 at=" << num(0.80 * h) << " for=" << num(0.10 * h)
    << " watermark=8 sojourn=200 classes=2\n"
    << "retune p0agg0>core0 at=" << num(0.90 * h) << " w=1,2,4\n";
  return s.str();
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = kFnvOffset) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void mix(std::uint64_t& h, double v) { h = fnv1a(&v, sizeof v, h); }
void mix(std::uint64_t& h, std::uint64_t v) { h = fnv1a(&v, sizeof v, h); }

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (name == "single_link_wtp") {
    spec.kind = WorkloadKind::kSingleLinkWtp;
    spec.study.scheduler = pds::SchedulerKind::kWtp;
    spec.study.sdp = {1.0, 2.0, 4.0, 8.0};
    spec.study.load_fractions = {0.4, 0.3, 0.2, 0.1};
    spec.study.utilization = 0.95;
    spec.study.arrivals = pds::ArrivalModel::kPareto;
    spec.study.pareto_alpha = 1.9;
    spec.study.sim_time = kStudySimTime;
    // Seeds seed*1000 .. seed*1000 + replications - 1: disjoint sets for
    // distinct workload seeds.
    spec.study.seed = seed * 1000;
    // Watchdog budgets here and below: ~25-50x the events a healthy run
    // executes.
    spec.study.max_events = static_cast<std::uint64_t>(kStudySimTime * 8);
    spec.replications = kStudyReplications;
  } else if (name == "fabric_rpc") {
    spec.kind = WorkloadKind::kFabricRpc;
    spec.scenario_text = fabric_rpc_scenario(seed);
    spec.options.max_events = static_cast<std::uint64_t>(kRpcUntil * 40);
  } else if (name == "fabric_faults") {
    spec.kind = WorkloadKind::kFabricFaults;
    spec.scenario_text = fabric_faults_scenario(seed);
    spec.options.fault_plan = fabric_faults_fault_plan(seed);
    spec.options.control_plan = fabric_faults_control_plan(seed);
    spec.options.max_events = static_cast<std::uint64_t>(kFaultsUntil * 40);
    spec.render_report = true;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return spec;
}

WorkloadSpec setup_variant(const WorkloadSpec& spec) {
  WorkloadSpec s = spec;
  if (s.kind == WorkloadKind::kSingleLinkWtp) {
    // run_study_a needs a mean delay per class, so every class must depart
    // at least once: Poisson gaps (same construction cost as Pareto ones,
    // without the heavy first-gap tail), no warmup, and a horizon of 3000 tu
    // (~25 expected departures of the 10% class, ~500 events per seed).
    s.study.arrivals = pds::ArrivalModel::kPoisson;
    s.study.warmup_fraction = 0.0;
    s.study.sim_time = 3000.0;
  } else {
    // A horizon of about one time unit: plan episodes and RPC think draws
    // all land beyond it.
    s.options.horizon_scale = 1.0 / pds::parse_scenario(s.scenario_text).run.until;
  }
  return s;
}

OpResult summarize_study_a(const WorkloadSpec& spec,
                           const std::vector<StudyASummary>& seeds) {
  OpResult out;
  std::uint64_t h = kFnvOffset;
  const std::size_t pairs = spec.study.sdp.size() - 1;
  std::vector<double> ratio_sum(pairs, 0.0);
  double util_sum = 0.0;
  for (const StudyASummary& s : seeds) {
    for (const double d : s.mean_delays) mix(h, d);
    for (const std::uint64_t n : s.departures) mix(h, n);
    mix(h, s.utilization);
    mix(h, s.total_departures);
    mix(h, s.executed_events);
    out.packets += s.total_departures;
    util_sum += s.utilization;
    for (std::size_t i = 0; i < pairs && i < s.ratios.size(); ++i) {
      ratio_sum[i] += s.ratios[i];
    }
  }
  out.digest = h;

  // Oracle: the link runs at the configured load, and each adjacent-class
  // delay ratio (averaged over seeds, the paper's Fig. 1 method) is near
  // the SDP ratio s_{i+1}/s_i (Eq. 10).
  const double n = static_cast<double>(seeds.size());
  const double util = util_sum / n;
  std::ostringstream err;
  if (std::fabs(util - spec.study.utilization) > kStudyUtilTolerance) {
    err << "utilization " << util << " not within " << kStudyUtilTolerance
        << " of " << spec.study.utilization << "; ";
  }
  for (std::size_t i = 0; i < pairs; ++i) {
    const double target = spec.study.sdp[i + 1] / spec.study.sdp[i];
    const double ratio = ratio_sum[i] / n;
    if (std::fabs(ratio / target - 1.0) > kStudyRatioTolerance) {
      err << "delay ratio c" << i + 1 << "/c" << i + 2 << " = " << ratio
          << ", expected " << target << "; ";
    }
  }
  out.error = err.str();
  return out;
}

OpResult summarize_scenario(const WorkloadSpec& spec,
                            const pds::Scenario& scenario,
                            const pds::ScenarioReport& report) {
  OpResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string doc =
      pds::scenario_run_report(scenario, report, spec.seed).dump();
  out.report_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  out.digest = fnv1a(doc.data(), doc.size());
  double hottest = 0.0;
  for (const auto& ls : report.link_stats) {
    out.packets += ls.packets_sent;
    out.dropper_drops += ls.buffer_drops;
    out.fault_drops += ls.fault_drops + ls.burst_drops;
    out.ctrl_drops += ls.control_drops;
    hottest = std::max(hottest, ls.utilization);
  }
  out.fault_episodes = report.fault_episodes;
  out.ctrl_episodes = report.control_episodes;

  std::ostringstream err;
  if (spec.kind == WorkloadKind::kFabricRpc) {
    // Oracle: below the knee no RPC gives up, and no link saturates.
    std::uint64_t failed = 0;
    for (const auto& fs : report.flow_stats) failed += fs.failed;
    if (failed != 0) err << failed << " RPCs failed; ";
    if (hottest >= 0.8) err << "hottest link at utilization " << hottest << "; ";
  } else if (spec.kind == WorkloadKind::kFabricFaults) {
    // Oracle: every scheduled episode of both plans ran to completion.
    if (report.fault_episodes == 0 ||
        report.fault_episodes != report.fault_episodes_scheduled) {
      err << "fault episodes " << report.fault_episodes << "/"
          << report.fault_episodes_scheduled << " completed; ";
    }
    if (report.control_episodes == 0 ||
        report.control_episodes != report.control_episodes_scheduled) {
      err << "control episodes " << report.control_episodes << "/"
          << report.control_episodes_scheduled << " completed; ";
    }
  }
  out.error = err.str();
  return out;
}

OpResult run_operation(const WorkloadSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto since_t0 = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  if (spec.kind == WorkloadKind::kSingleLinkWtp) {
    const auto results =
        pds::run_study_a_replications(spec.study, spec.replications);
    const double wall = since_t0();
    std::vector<StudyASummary> seeds;
    seeds.reserve(results.size());
    for (const auto& r : results) {
      seeds.push_back(StudyASummary{r.mean_delays, r.ratios, r.departures,
                                    r.measured_utilization, r.total_departures,
                                    r.executed_events});
    }
    OpResult out = summarize_study_a(spec, seeds);
    out.wall_s = wall;
    return out;
  }
  const pds::Scenario scenario = pds::parse_scenario(spec.scenario_text);
  const pds::ScenarioReport report = pds::run_scenario(scenario, spec.options);
  const double wall = since_t0();
  // The report is rendered either way (it is the digest); it is part of the
  // timed call only where the workload says so.
  OpResult out = summarize_scenario(spec, scenario, report);
  out.wall_s = wall + (spec.render_report ? out.report_ms / 1e3 : 0.0);
  return out;
}

}  // namespace perfbench
