// perfbench: the simulator's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <text>] [--spans-out <file>] [--perturb-digest <k>]
//
// --trace 0 runs the workload's timed operation in a closed loop (one call
// at a time, each started when the last returns) for --seconds and prints
// the end-to-end metrics: pkts_per_s and run_s (totals over the timed
// calls), setup_s (median of short-horizon calls run between the timed
// ones) and peak_rss_mb. The three times are scaled to nominal host speed
// by a calibration loop run after every timed call (calibrate.hpp); the
// unscaled values go to the context line. --trace 1 alternates untraced calls with traced
// rebuilds (traced.cpp) and prints the per-layer metrics. Every call's
// output digest and oracle are checked; a call that throws, trips the
// watchdog, fails its oracle or digests differently from the first call
// counts as failed. --perturb-digest flips the digest of the k-th checked
// call, so the self-test can show such a run is counted.
//
// Output: a "context" line (host, build, seed, sample counts), one
// "metric <name> <value> <unit>" line per metric, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "exp/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::OpResult;
using perfbench::WorkloadSpec;
using Clock = std::chrono::steady_clock;

// Closed-loop minimums, whatever --seconds says.
constexpr int kMinTimedCalls = 3;
// setup_s: short-horizon calls run between the timed ones, so both metrics
// sample the same stretch of host time. They take this share of the time
// the timed calls take, and at least kSetupMinCalls of them are made.
constexpr double kSetupShare = 0.1;
constexpr int kSetupMinCalls = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string revision = "unknown";
  std::string spans_out;
  long perturb_digest = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--revision") {
      a.revision = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else if (flag == "--perturb-digest") {
      a.perturb_digest = std::stol(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// High-water RSS of this program image. getrusage's ru_maxrss would also
// carry the launching process's peak across fork+exec (Linux keeps the
// larger of the two), so /proc's per-image VmHWM is read where it exists.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Counts attempted/failed calls and checks every result against the
// oracle and the first call's digest.
class Checker {
 public:
  explicit Checker(long perturb) : perturb_(perturb) {}

  // Runs `call`; returns its result when it passed every check.
  template <typename Call>
  std::optional<OpResult> attempt(const char* what, Call&& call,
                                  bool check_output) {
    ++attempted_;
    try {
      OpResult r = call();
      if (!check_output) return r;
      if (++checked_ == perturb_) r.digest ^= 1;
      if (!r.error.empty()) return fail(what, "oracle: " + r.error);
      if (!reference_) reference_ = r.digest;
      if (r.digest != *reference_) {
        std::ostringstream os;
        os << "digest " << std::hex << r.digest << " != first call's "
           << *reference_;
        return fail(what, os.str());
      }
      return r;
    } catch (const std::exception& e) {
      return fail(what, std::string("threw: ") + e.what());
    }
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::optional<OpResult> fail(const char* what, const std::string& why) {
    ++failed_;
    std::cerr << "perfbench: " << what << " call " << attempted_
              << " failed: " << why << "\n";
    return std::nullopt;
  }

  long perturb_;
  long checked_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::optional<std::uint64_t> reference_;
};

struct Measurement {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::size_t>> samples;
  // Wall-clock values before the host-speed scaling, for the context line.
  std::vector<Metric> unscaled;
};

Measurement measure_end_to_end(const WorkloadSpec& spec, const Args& args,
                               Checker& checker) {
  const auto op = [&spec] { return perfbench::run_operation(spec); };
  const WorkloadSpec setup = perfbench::setup_variant(spec);
  const auto setup_op = [&setup] { return perfbench::run_operation(setup); };
  // Warm-up calls: fill caches, finish lazy set-up (the pool's threads),
  // and fix the reference digest. Not timed.
  checker.attempt("warm-up", op, true);
  checker.attempt("setup warm-up", setup_op, false);
  perfbench::calibration_loop_s();

  std::vector<double> run_s, setup_s, loop_s;
  double packets = 0.0, timed_s = 0.0, setup_spent_s = 0.0;
  const auto setup_call = [&] {
    const auto t0 = Clock::now();
    if (auto r = checker.attempt("setup", setup_op, false)) {
      setup_s.push_back(r->wall_s);
    }
    setup_spent_s += seconds_since(t0);
  };
  const auto start = Clock::now();
  int calls = 0;
  while (seconds_since(start) < args.seconds || calls < kMinTimedCalls) {
    ++calls;
    if (auto r = checker.attempt("timed", op, true)) {
      run_s.push_back(r->wall_s);
      packets += static_cast<double>(r->packets);
      timed_s += r->wall_s;
    }
    loop_s.push_back(perfbench::calibration_loop_s());
    while (setup_spent_s < kSetupShare * timed_s) setup_call();
  }
  for (int i = 0; static_cast<int>(setup_s.size()) < kSetupMinCalls &&
                  i < 4 * kSetupMinCalls;
       ++i) {
    setup_call();
  }

  // Wall times at nominal host speed: scaled by how much slower than
  // nominal the calibration loop ran over this run (calibrate.hpp).
  const double loop = median(loop_s);
  const double scale = perfbench::kNominalLoopS / loop;
  const double pkts_per_s = timed_s > 0.0 ? packets / timed_s : 0.0;
  Measurement m;
  m.metrics = {
      {"pkts_per_s", pkts_per_s / scale, "1/s"},
      {"run_s", mean(run_s) * scale, "s"},
      {"setup_s", median(setup_s) * scale, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  m.unscaled = {
      {"pkts_per_s", pkts_per_s, "1/s"},
      {"run_s", mean(run_s), "s"},
      {"setup_s", median(setup_s), "s"},
      {"calibration_loop_s", loop, "s"},
  };
  m.samples = {{"run_s", run_s.size()},
               {"setup_s", setup_s.size()},
               {"calibration_loop_s", loop_s.size()}};
  return m;
}

double per(std::uint64_t total, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

Measurement measure_layers(const WorkloadSpec& spec, const Args& args,
                           Checker& checker, std::uint32_t workers) {
  const auto op = [&spec] { return perfbench::run_operation(spec); };
  checker.attempt("warm-up", op, true);

  const bool pooled = spec.kind == perfbench::WorkloadKind::kSingleLinkWtp;
  pds::ThreadPool& pool = pds::ThreadPool::global();
  std::vector<double> untraced_s, traced_s;
  double pool_busy_s = 0.0, pool_wall_s = 0.0;
  std::uint64_t pool_steals = 0;

  perfbench::Tracer totals(0, 0.0);
  perfbench::TracedResult last;
  double parse_ms = 0.0, build_ms = 0.0, report_ms = 0.0;
  std::uint64_t reps = 0;

  const auto start = Clock::now();
  int calls = 0;
  while (seconds_since(start) < args.seconds || calls < 2) {
    ++calls;
    pool.reset_stats();
    if (auto r = checker.attempt("untraced", op, true)) {
      untraced_s.push_back(r->wall_s);
      if (pooled) {
        const pds::PoolStats stats = pool.stats();
        for (const auto& w : stats.workers) pool_busy_s += w.busy_seconds;
        pool_steals += stats.total_steals();
        pool_wall_s += r->wall_s;
      }
    }
    perfbench::TracedResult traced;
    double wall = 0.0;
    const auto traced_op = [&] {
      const auto t0 = Clock::now();
      traced = perfbench::run_traced(spec);
      wall = seconds_since(t0);
      return traced.op;
    };
    if (auto r = checker.attempt("traced", traced_op, true)) {
      // Compare like with like: the report render is only part of the
      // untraced timed call where the workload says so.
      traced_s.push_back(wall -
                         (spec.render_report ? 0.0 : r->report_ms / 1e3));
      totals.merge(traced.totals);
      parse_ms += traced.parse_ms;
      build_ms += traced.build_ms;
      report_ms += r->report_ms;
      ++reps;
      last = std::move(traced);
    }
  }

  if (!args.spans_out.empty() && !last.tracers.empty()) {
    std::vector<const perfbench::Tracer*> tracers;
    for (const auto& t : last.tracers) tracers.push_back(t.get());
    std::ofstream out(args.spans_out);
    perfbench::write_chrome_trace(out, tracers);
  }

  const auto L = [&totals](Layer layer) -> const perfbench::LayerTotals& {
    return totals.of(layer);
  };
  const auto self_ns = [&L](Layer layer) {
    return per(L(layer).self_ns, L(layer).calls);
  };
  const auto per_rep = [reps](double total) {
    return reps == 0 ? 0.0 : total / static_cast<double>(reps);
  };
  const std::uint64_t sched_allocs = L(Layer::kSchedEnqueue).self_allocs +
                                     L(Layer::kSchedDequeue).self_allocs;
  const OpResult& o = last.op;
  const double untraced = median(untraced_s);
  const double n_pool = static_cast<double>(workers);

  Measurement m;
  m.metrics = {
      {"dsim.events", per_rep(static_cast<double>(totals.events)), "count"},
      {"dsim.dispatch_ns", per(totals.dispatch_ns, totals.dispatch_gaps),
       "ns"},
      {"dsim.pending_mean", per(totals.pending_sum, totals.events), "count"},
      {"dsim.pending_max", static_cast<double>(totals.pending_max), "count"},
      {"dsim.allocs_per_event", per(totals.run_allocs, totals.events),
       "allocs/event"},
      {"sched.enqueue_ns", self_ns(Layer::kSchedEnqueue), "ns"},
      {"sched.dequeue_ns", self_ns(Layer::kSchedDequeue), "ns"},
      {"sched.link_tx_ns", self_ns(Layer::kLinkTx), "ns"},
      {"sched.allocs_per_pkt",
       per(sched_allocs, L(Layer::kSchedDequeue).calls), "allocs/pkt"},
      {"sched.traced_links", static_cast<double>(last.traced_links), "count"},
      {"queueing.backlog_mean", per(totals.backlog_sum, totals.backlog_samples),
       "pkts"},
      {"queueing.backlog_max", static_cast<double>(totals.backlog_max),
       "pkts"},
      {"traffic.emit_ns", self_ns(Layer::kTrafficSource), "ns"},
      {"traffic.pkts", per_rep(static_cast<double>(totals.source_packets)),
       "count"},
      {"net.parse_ms", per_rep(parse_ms), "ms"},
      {"net.build_ms", per_rep(build_ms), "ms"},
      {"net.forward_ns", self_ns(Layer::kForward), "ns"},
      {"net.hops_per_pkt",
       per(totals.hop_departures, totals.first_hop_arrivals), "hops/pkt"},
      {"net.rpc_issue_ns", self_ns(Layer::kRpcIssue), "ns"},
      {"net.rpc_exit_ns", self_ns(Layer::kRpcExit), "ns"},
      {"net.rpc_timeouts", per_rep(static_cast<double>(totals.rto_events)),
       "count"},
      {"dropper.drops", static_cast<double>(o.dropper_drops), "count"},
      {"fault.episodes", static_cast<double>(o.fault_episodes), "count"},
      {"fault.event_ns", self_ns(Layer::kFault), "ns"},
      {"fault.drops", static_cast<double>(o.fault_drops), "count"},
      {"ctrl.episodes", static_cast<double>(o.ctrl_episodes), "count"},
      {"ctrl.event_ns", self_ns(Layer::kCtrl), "ns"},
      {"ctrl.drops", static_cast<double>(o.ctrl_drops), "count"},
      {"obs.report_ms", per_rep(report_ms), "ms"},
      {"exp.workers", pooled ? n_pool : 0.0, "count"},
      {"exp.busy_frac",
       pooled && pool_wall_s > 0 ? pool_busy_s / (n_pool * pool_wall_s) : 0.0,
       "fraction"},
      {"exp.steals",
       pooled ? static_cast<double>(pool_steals) /
                    static_cast<double>(std::max<std::size_t>(1, untraced_s.size()))
              : 0.0,
       "count"},
      {"exp.speedup", pooled && pool_wall_s > 0 ? pool_busy_s / pool_wall_s : 0.0,
       "x"},
      {"bench.trace_overhead",
       untraced > 0 ? median(traced_s) / untraced - 1.0 : 0.0, "fraction"},
  };
  m.samples = {{"untraced", untraced_s.size()}, {"traced", traced_s.size()}};
  return m;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  try {
    args = parse_args(argc, argv);
    spec = perfbench::make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  // A fixed exp-pool size no larger than the host: 4 workers, fewer on
  // smaller machines.
  const std::uint32_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t workers = std::min(4u, nproc);
  pds::ThreadPool::set_global_workers(workers);

  Checker checker(args.perturb_digest);
  const Measurement m = args.trace == 0
                            ? measure_end_to_end(spec, args, checker)
                            : measure_layers(spec, args, checker, workers);
  const double fail_frac =
      checker.attempted() == 0
          ? 1.0
          : static_cast<double>(checker.failed()) /
                static_cast<double>(checker.attempted());

  std::ostringstream ctx;
  ctx << "{\"workload\":" << json_string(spec.name) << ",\"seed\":" << args.seed
      << ",\"seconds\":" << json_number(args.seconds)
      << ",\"trace\":" << args.trace << ",\"nproc\":" << nproc
      << ",\"exp_workers\":" << workers
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"revision\":" << json_string(args.revision) << ",\"samples\":{";
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    ctx << (i ? "," : "") << json_string(m.samples[i].first) << ":"
        << m.samples[i].second;
  }
  ctx << "},\"unscaled\":{";
  for (std::size_t i = 0; i < m.unscaled.size(); ++i) {
    ctx << (i ? "," : "") << json_string(m.unscaled[i].name) << ":"
        << json_number(m.unscaled[i].value);
  }
  ctx << "},\"run_fail_frac\":" << json_number(fail_frac) << "}";
  std::cout << "context " << ctx.str() << "\n";

  std::cout << "metric run_fail_frac " << json_number(fail_frac)
            << " fraction\n";
  std::ostringstream metrics;
  for (std::size_t i = 0; i < m.metrics.size(); ++i) {
    const Metric& x = m.metrics[i];
    std::cout << "metric " << x.name << " " << json_number(x.value) << " "
              << x.unit << "\n";
    metrics << (i ? ", " : "") << json_string(x.name)
            << ": {\"value\": " << json_number(x.value)
            << ", \"unit\": " << json_string(x.unit) << "}";
  }
  std::cout << "{\"correct\": " << (checker.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed() << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
