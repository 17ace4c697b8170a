// Observability overhead guard.
//
// Quantifies what the obs hooks cost on the two hot paths they touch and
// asserts the "compiled in but disabled" configurations are effectively
// free (<5% by default):
//
//  1. Kernel event loop (guarded). The baseline copies Simulator's
//     schedule_at, schedule_in and drain line for line — the contract
//     checks, the label store, the delay tag schedule_in passes (each
//     chain re-arms at its own fixed delay, so delay lanes engage on both
//     sides), the pending-event set held by value with its one
//     earliest-source choice per event, the watchdog budget branch and the
//     per-run event count — and leaves out only the SimMonitor branch,
//     which -DPDS_OBS=OFF does not remove.
//     Against it we time the real Simulator with no monitor (the disabled
//     branch) and with a SimProfiler attached.
//  2. Link transmission path (informational). A WTP link with no probe vs a
//     PacketTracer at sample rate 0 (every packet pays the probe virtual
//     calls, backlog context and the hash-based sampling decision, but
//     records nothing) and at rate 1 (every event recorded). The no-probe
//     configuration is the disabled path; its only cost over compiled-out
//     is one null-pointer branch per lifecycle event.
//  3. Departure-side conformance monitoring (guarded). The same link run
//     with no ConformanceMonitor, with one constructed but disabled
//     (tau = 0, record() early-returns), and with live windowed monitoring.
//     The disabled configuration is what every run without
//     --conformance-tau pays and must stay within the threshold.
//
// The event-loop table also times a KernelSpanMonitor (span batching when
// --spans-out is live) next to the SimProfiler — informational, since the
// disabled-span path is exactly the "no monitor" row the guard covers.
//
// Every rep times each group's configurations back to back, so drift in
// host speed between reps lands on all of them alike. The order rotates by
// one each rep and runs backwards every other rep, so no configuration
// always follows the same neighbour. A configuration's overhead is the
// median over reps of its time divided by the group baseline's time in the
// same rep; the wall column shows its best rep. Exits non-zero when a
// guarded overhead exceeds `--threshold` percent.
//
//   micro_obs_overhead [--events=2000000] [--packets=400000] [--reps=5]
//                      [--threshold=5]
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "obs/conformance.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "packet/size_law.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/table.hpp"

namespace {

constexpr std::uint32_t kChains = 64;  // keeps a realistic queue population

// One timed configuration; `seconds` holds one wall time per rep.
struct Config {
  const char* name;
  std::function<void()> run;
  std::vector<double> seconds;

  double best() const {
    return *std::min_element(seconds.begin(), seconds.end());
  }
};

// Runs every configuration of `group` once per rep, back to back: rep r
// starts at configuration r mod size and walks forwards on even reps,
// backwards on odd ones. group[0] is the baseline.
void time_group(std::vector<Config>& group, std::uint32_t reps) {
  const std::size_t n = group.size();
  for (std::uint32_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = (r + i) % n;
      Config& c = group[r % 2 == 0 ? k : n - 1 - k];
      const auto t0 = std::chrono::steady_clock::now();
      c.run();
      const auto t1 = std::chrono::steady_clock::now();
      c.seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
}

// Median over reps of `c`'s time divided by the baseline's in the same rep.
double median_ratio(const Config& c, const Config& base) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < c.seconds.size(); ++r) {
    ratios.push_back(c.seconds[r] / base.seconds[r]);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  return ratios.size() % 2 == 1 ? ratios[mid]
                                : 0.5 * (ratios[mid - 1] + ratios[mid]);
}

// Simulator minus its SimMonitor hook: schedule_at, schedule_in and drain
// copy dsim/simulator.cpp, budget branch and all, so the only difference
// from Simulator-without-monitor is the hook branch. The budget is never
// armed here, as in the simulator runs it is compared with.
struct RawKernel {
  pds::HeapEventQueue q;
  pds::SimTime now = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t executed = 0;
  bool stopped = false;
  std::uint64_t budget_events = 0;
  double budget_wall_seconds = 0.0;

  // noinline keeps the comparison honest: the real Simulator's schedule/run
  // live in another translation unit, so the baseline must not win by
  // inlining into the benchmark loop.
  [[gnu::noinline]] void schedule_at(pds::SimTime t, pds::SimEvent action,
                                     const char* label) {
    PDS_CHECK(t >= now, "cannot schedule an event in the past");
    PDS_CHECK(static_cast<bool>(action), "null event action");
    if (label != nullptr) action.set_label(label);
    q.push(t, seq++, std::move(action));
  }

  [[gnu::noinline]] void schedule_in(pds::SimTime dt, pds::SimEvent action,
                                     const char* label) {
    PDS_CHECK(dt >= 0.0, "negative delay");
    PDS_CHECK(static_cast<bool>(action), "null event action");
    if (label != nullptr) action.set_label(label);
    q.push(now + dt, seq++, std::move(action),
           pds::HeapEventQueue::delay_tag(dt));
  }

  [[gnu::noinline]] void drain(pds::SimTime horizon, bool bounded) {
    constexpr std::uint64_t kWallCheckPeriod = 4096;
    using WallClock = std::chrono::steady_clock;
    const bool budgeted = budget_events > 0 || budget_wall_seconds > 0.0;
    const WallClock::time_point run_start =
        budgeted ? WallClock::now() : WallClock::time_point{};
    std::uint64_t run_executed = 0;

    stopped = false;
    while (!q.empty() && !stopped) {
      if (bounded && q.next_time() > horizon) break;
      if (budgeted) {
        if (budget_events > 0 && run_executed >= budget_events) {
          throw pds::SimBudgetExceeded(
              "event budget exceeded: " + std::to_string(run_executed) +
                  " events executed in one run call (limit " +
                  std::to_string(budget_events) + ")",
              now, run_executed, q.size());
        }
        if (budget_wall_seconds > 0.0 &&
            run_executed % kWallCheckPeriod == 0) {
          const std::chrono::duration<double> elapsed =
              WallClock::now() - run_start;
          if (elapsed.count() > budget_wall_seconds) {
            throw pds::SimBudgetExceeded(
                "wall-clock budget exceeded: " +
                    std::to_string(elapsed.count()) + " s elapsed (limit " +
                    std::to_string(budget_wall_seconds) + " s)",
                now, run_executed, q.size());
          }
        }
      }
      pds::EventItem ev = q.pop();
      PDS_REQUIRE(ev.time >= now);
      now = ev.time;
      ++executed;
      ++run_executed;
      ev.action();
    }
    if (bounded && !stopped && now < horizon) now = horizon;
  }

  [[gnu::noinline]] void run() {
    drain(std::numeric_limits<pds::SimTime>::infinity(), /*bounded=*/false);
  }
};

void run_raw_event_chain(std::uint64_t events) {
  struct Chain {
    RawKernel* kernel;
    std::uint64_t* remaining;
    double gap;

    void arm() {
      kernel->schedule_in(
          gap,
          [this]() {
            // The budget is shared across chains; sibling events already
            // in flight when it reaches zero must not wrap it around.
            if (*remaining > 0 && --*remaining > 0) arm();
          },
          "bench.chain");
    }
  };
  RawKernel kernel;
  std::uint64_t remaining = events;
  std::vector<Chain> chains(kChains);
  for (std::uint32_t i = 0; i < kChains; ++i) {
    chains[i] = Chain{&kernel, &remaining,
                      1.0 + 1e-3 * static_cast<double>(i)};
    chains[i].arm();
  }
  kernel.run();
}

void run_sim_event_chain(std::uint64_t events, pds::SimMonitor* monitor) {
  struct Chain {
    pds::Simulator* sim;
    std::uint64_t* remaining;
    double gap;

    void arm() {
      sim->schedule_in(
          gap,
          [this]() {
            if (*remaining > 0 && --*remaining > 0) arm();
          },
          "bench.chain");
    }
  };
  pds::Simulator sim;
  sim.set_monitor(monitor);
  std::uint64_t remaining = events;
  std::vector<Chain> chains(kChains);
  for (std::uint32_t i = 0; i < kChains; ++i) {
    chains[i] = Chain{&sim, &remaining, 1.0 + 1e-3 * static_cast<double>(i)};
    chains[i].arm();
  }
  sim.run();
}

void run_link_path(std::uint64_t packets, pds::PacketProbe* probe,
                   pds::ConformanceMonitor* conformance = nullptr) {
  pds::Simulator sim;
  pds::SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  config.link_capacity = pds::kStudyACapacity;
  const auto sched = pds::make_scheduler(pds::SchedulerKind::kWtp, config);
  std::uint64_t departed = 0;
  // The branch + forwarded record() mirror the run_study_a departure path.
  pds::Link link(sim, *sched, config.link_capacity,
                 [&departed, conformance](pds::Packet&& p, pds::SimTime wait,
                                          pds::SimTime now) {
                   ++departed;
                   if (conformance) conformance->record(p.cls, wait, now);
                 });
  link.set_probe(probe);

  // Deterministic rho ~= 0.9 arrival chain, classes round-robin.
  struct Feeder {
    pds::Simulator* sim;
    pds::Link* link;
    std::uint64_t remaining;
    std::uint64_t next_id = 0;
    double gap;

    void arm() {
      sim->schedule_in(
          gap,
          [this]() {
            pds::Packet p;
            p.id = next_id++;
            p.cls = static_cast<pds::ClassId>(p.id % 4);
            p.size_bytes =
                static_cast<std::uint32_t>(pds::kPaperMeanPacketBytes);
            p.created = sim->now();
            link->arrive(p);
            if (--remaining > 0) arm();
          },
          "bench.feeder");
    }
  };
  Feeder feeder{&sim, &link, packets, 0,
                pds::kPaperMeanPacketBytes / config.link_capacity / 0.9};
  feeder.arm();
  sim.run();
  if (departed != packets) {
    throw std::logic_error("link bench lost packets");
  }
}

std::string pct(double ratio) {
  return pds::TablePrinter::num(100.0 * (ratio - 1.0), 2) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pds::ArgParser args(argc, argv);
    args.require_known({"events", "packets", "reps", "threshold", "help"});
    if (args.has("help")) {
      std::cerr << "usage: micro_obs_overhead [--events=2000000]\n"
                   "  [--packets=400000] [--reps=5] [--threshold=5]\n";
      return 0;
    }
    const auto events = args.get_int<std::uint64_t>("events", 2000000, 1);
    const auto packets = args.get_int<std::uint64_t>("packets", 400000, 1);
    const auto reps = args.get_int<std::uint32_t>("reps", 5, 1);
    const double threshold = args.get_double("threshold", 5.0);

    // --- kernel event loop -------------------------------------------------
    std::vector<Config> loop{
        {"raw queue (no hooks)", [&]() { run_raw_event_chain(events); }, {}},
        {"simulator, no monitor",
         [&]() { run_sim_event_chain(events, nullptr); }, {}},
        {"simulator + SimProfiler",
         [&]() {
           pds::SimProfiler profiler;
           run_sim_event_chain(events, &profiler);
         },
         {}},
        {"simulator + KernelSpanMonitor",
         [&]() {
           pds::SpanBuffer buffer;
           pds::KernelSpanMonitor monitor(buffer);
           run_sim_event_chain(events, &monitor);
           monitor.finish();
         },
         {}},
    };

    // --- link transmission path and departure-side conformance ------------
    const std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
    std::vector<Config> link{
        {"no probe", [&]() { run_link_path(packets, nullptr); }, {}},
        {"PacketTracer rate 0",
         [&]() {
           pds::PacketTracer tracer(0.0, 1);
           run_link_path(packets, &tracer);
         },
         {}},
        {"PacketTracer rate 1",
         [&]() {
           pds::PacketTracer tracer(1.0, 1);
           run_link_path(packets, &tracer);
         },
         {}},
        {"conformance disabled (tau 0)",
         [&]() {
           pds::ConformanceOptions copts;
           copts.tau = 0.0;  // constructed but disabled: record() returns
           pds::ConformanceMonitor conformance(sdp, copts);
           run_link_path(packets, nullptr, &conformance);
         },
         {}},
        {"conformance tau 500",
         [&]() {
           pds::ConformanceOptions copts;
           copts.tau = 500.0;  // live Eq. 2 windowing on every departure
           pds::ConformanceMonitor conformance(sdp, copts);
           run_link_path(packets, nullptr, &conformance);
           conformance.finish();
         },
         {}},
    };

    time_group(loop, reps);
    time_group(link, reps);

    pds::TablePrinter table(
        {"path", "configuration", "wall (ms)", "Mops/s", "overhead"});
    const auto rows = [&](const char* path, const std::vector<Config>& group,
                          std::uint64_t ops) {
      for (const Config& c : group) {
        table.add_row(
            {path, c.name, pds::TablePrinter::num(1e3 * c.best(), 1),
             pds::TablePrinter::num(
                 static_cast<double>(ops) / c.best() / 1e6, 2),
             &c == &group[0] ? "-" : pct(median_ratio(c, group[0]))});
      }
    };
    rows("event loop", loop, events);
    rows("link", link, packets);
    table.print(std::cout);

    // The guards: obs compiled in but disabled must stay within `threshold`
    // percent of the path without the hook — the monitor branch in the event
    // loop, and the conformance branch + early-return on the departure path.
    const double over = 100.0 * (median_ratio(loop[1], loop[0]) - 1.0);
    const double conf_over = 100.0 * (median_ratio(link[3], link[0]) - 1.0);
    const bool pass = over < threshold && conf_over < threshold;
    std::cout << "\n"
              << (over < threshold ? "PASS" : "FAIL")
              << ": event loop with monitor hook disabled costs "
              << pds::TablePrinter::num(over, 2) << "% (threshold "
              << pds::TablePrinter::num(threshold, 0) << "%)\n"
              << (conf_over < threshold ? "PASS" : "FAIL")
              << ": departure path with conformance disabled costs "
              << pds::TablePrinter::num(conf_over, 2) << "% (threshold "
              << pds::TablePrinter::num(threshold, 0) << "%)\n";
    return pass ? 0 : 1;
  } catch (const pds::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
