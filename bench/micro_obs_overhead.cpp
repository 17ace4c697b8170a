// Observability overhead guard.
//
// Quantifies what the obs hooks cost on the two hot paths they touch and
// asserts the "compiled in but disabled" configurations are effectively
// free (<5% by default):
//
//  1. Kernel event loop (guarded). Baseline replicates the pre-hook
//     Simulator loop exactly — same contract checks, same binary heap held
//     by value, same bookkeeping — minus the SimMonitor branch, i.e. the
//     binary you would get from -DPDS_OBS=OFF. Against it we time the real
//     Simulator with no monitor (the disabled branch) and with a
//     SimProfiler attached.
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
// Each configuration is timed `--reps` times and the best run is kept, which
// filters scheduler noise on shared machines. Exits non-zero when a guarded
// overhead exceeds `--threshold` percent.
//
//   micro_obs_overhead [--events=2000000] [--packets=400000] [--reps=5]
//                      [--threshold=5]
#include <chrono>
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

template <typename F>
double best_seconds(std::uint32_t reps, F&& body) {
  double best = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

// The kernel as it was before the SimMonitor hook existed: identical
// scheduling checks, pending-event heap and per-event bookkeeping, so the
// only difference from Simulator-without-monitor is the hook branch — the
// cost compiling obs out would remove.
struct RawKernel {
  pds::HeapEventQueue q;
  pds::SimTime now = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t executed = 0;
  bool stopped = false;

  // noinline keeps the comparison honest: the real Simulator's schedule/run
  // live in another translation unit, so the baseline must not win by
  // inlining into the benchmark loop.
  [[gnu::noinline]] void schedule_at(pds::SimTime t, pds::SimEvent action) {
    PDS_CHECK(t >= now, "cannot schedule an event in the past");
    PDS_CHECK(static_cast<bool>(action), "null event action");
    q.push(pds::EventItem{t, seq++, std::move(action)});
  }

  [[gnu::noinline]] void schedule_in(pds::SimTime dt, pds::SimEvent action) {
    PDS_CHECK(dt >= 0.0, "negative delay");
    schedule_at(now + dt, std::move(action));
  }

  [[gnu::noinline]] void drain(pds::SimTime horizon, bool bounded) {
    stopped = false;
    while (!q.empty() && !stopped) {
      if (bounded && q.next_time() > horizon) break;
      pds::EventItem ev = q.pop();
      PDS_REQUIRE(ev.time >= now);
      now = ev.time;
      ++executed;
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
      kernel->schedule_in(gap, [this]() {
        // The budget is shared across chains; sibling events already in
        // flight when it reaches zero must not wrap it around.
        if (*remaining > 0 && --*remaining > 0) arm();
      });
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
    const double t_raw =
        best_seconds(reps, [&]() { run_raw_event_chain(events); });
    const double t_nomon =
        best_seconds(reps, [&]() { run_sim_event_chain(events, nullptr); });
    const double t_prof = best_seconds(reps, [&]() {
      pds::SimProfiler profiler;
      run_sim_event_chain(events, &profiler);
    });
    const double t_span = best_seconds(reps, [&]() {
      pds::SpanBuffer buffer;
      pds::KernelSpanMonitor monitor(buffer);
      run_sim_event_chain(events, &monitor);
      monitor.finish();
    });

    // --- link transmission path -------------------------------------------
    const double t_noprobe =
        best_seconds(reps, [&]() { run_link_path(packets, nullptr); });
    const double t_trace0 = best_seconds(reps, [&]() {
      pds::PacketTracer tracer(0.0, 1);
      run_link_path(packets, &tracer);
    });
    const double t_trace1 = best_seconds(reps, [&]() {
      pds::PacketTracer tracer(1.0, 1);
      run_link_path(packets, &tracer);
    });

    // --- departure-side conformance monitoring ----------------------------
    const std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
    const double t_conf_off = best_seconds(reps, [&]() {
      pds::ConformanceOptions copts;
      copts.tau = 0.0;  // constructed but disabled: record() early-returns
      pds::ConformanceMonitor conformance(sdp, copts);
      run_link_path(packets, nullptr, &conformance);
    });
    const double t_conf_on = best_seconds(reps, [&]() {
      pds::ConformanceOptions copts;
      copts.tau = 500.0;  // live Eq. 2 windowing on every departure
      pds::ConformanceMonitor conformance(sdp, copts);
      run_link_path(packets, nullptr, &conformance);
      conformance.finish();
    });

    const double ev = static_cast<double>(events);
    const double pk = static_cast<double>(packets);
    pds::TablePrinter table(
        {"path", "configuration", "wall (ms)", "Mops/s", "overhead"});
    const auto row = [&](const char* path, const char* cfg, double t,
                         double ops, double base) {
      table.add_row({path, cfg, pds::TablePrinter::num(1e3 * t, 1),
                     pds::TablePrinter::num(ops / t / 1e6, 2),
                     t == base ? "-" : pct(t / base)});
    };
    row("event loop", "raw queue (no hooks)", t_raw, ev, t_raw);
    row("event loop", "simulator, no monitor", t_nomon, ev, t_raw);
    row("event loop", "simulator + SimProfiler", t_prof, ev, t_raw);
    row("event loop", "simulator + KernelSpanMonitor", t_span, ev, t_raw);
    row("link", "no probe", t_noprobe, pk, t_noprobe);
    row("link", "PacketTracer rate 0", t_trace0, pk, t_noprobe);
    row("link", "PacketTracer rate 1", t_trace1, pk, t_noprobe);
    row("link", "conformance disabled (tau 0)", t_conf_off, pk, t_noprobe);
    row("link", "conformance tau 500", t_conf_on, pk, t_noprobe);
    table.print(std::cout);

    // The guards: obs compiled in but disabled must stay within `threshold`
    // percent of the path without the hook — the monitor branch in the event
    // loop, and the conformance branch + early-return on the departure path.
    const double over = 100.0 * (t_nomon / t_raw - 1.0);
    const double conf_over = 100.0 * (t_conf_off / t_noprobe - 1.0);
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
