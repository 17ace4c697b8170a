// Event-queue and dispatch microbenchmarks: the kernel's binary heap under
// the hold-model workload (the standard benchmark for simulator event sets:
// alternate pop and push-at-future-time on a steady population), plus an
// end-to-end packet pipeline (source -> scheduler -> link) that measures the
// allocation cost of the kernel's event dispatch per simulated packet.
//
// Every benchmark reports `allocs_per_*` counters backed by the counting
// operator-new in alloc_counter.cpp — the regression guard for the hot-path
// allocation budget (see docs/architecture.md).
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "dsim/event_queue.hpp"
#include "dsim/simulator.hpp"
#include "micro_common.hpp"
#include "packet/arena.hpp"
#include "rng/rng.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "traffic/source.hpp"

namespace {

// Mimics the capture footprint of a link-completion event (two pointers and
// two doubles, 32 bytes): small enough for a 48-byte small-buffer event,
// too large for std::function's 16-byte inline storage.
struct TxPayload {
  void* link;
  void* packet;
  double wait;
  double tx;
};

void BM_Heap(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pds::HeapEventQueue q;
    pds::Rng rng(99);
    std::uint64_t seq = 0;
    TxPayload payload{nullptr, nullptr, 0.0, 0.0};
    for (std::size_t i = 0; i < population; ++i) {
      q.push(rng.uniform01() * 100.0, seq++,
             [payload] { benchmark::DoNotOptimize(payload); });
    }
    state.ResumeTiming();
    const std::uint64_t before = pds::bench::heap_allocations();
    // Hold model: each pop schedules a replacement a random offset ahead.
    for (int step = 0; step < 10000; ++step) {
      pds::EventItem item = q.pop();
      q.push(item.time + rng.uniform01() * 100.0, seq++,
             std::move(item.action));
    }
    allocs += pds::bench::heap_allocations() - before;
    ops += 10000;
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  state.counters["allocs_per_op"] =
      ops ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
}

// The kernel->link->source hot path end to end: four renewal sources feed a
// WTP link at ~90% utilization, with the class rings arena-backed as in the
// chain and graph scenarios. Items processed are executed kernel events;
// `allocs_per_pkt` is the steady-state heap-allocation cost of one simulated
// packet — measured after a warmup that lets the event queue and the class
// rings reach their working size, it must be exactly 0.0 (see the guard).
void BM_PacketPipelineHeap(benchmark::State& state) {
  constexpr double kCapacity = 1000.0;    // bytes per time unit
  constexpr std::uint32_t kBytes = 500;   // fixed packet size
  constexpr double kMeanGap = 500.0 / 225.0;  // per-class load 0.225
  constexpr pds::SimTime kWarmup = 2500.0;
  constexpr pds::SimTime kRunTime = 7500.0;

  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pds::Simulator sim;
    // Declared before the scheduler so the rings release into a live arena.
    pds::PacketArena arena;
    pds::SchedulerConfig cfg;
    cfg.sdp = {1.0, 2.0, 4.0, 8.0};
    cfg.link_capacity = kCapacity;
    cfg.arena = &arena;
    auto sched = pds::make_scheduler(pds::SchedulerKind::kWtp, cfg);
    std::uint64_t departed = 0;
    pds::Link link(sim, *sched, kCapacity,
                   [&departed](pds::Packet&&, pds::SimTime, pds::SimTime) {
                     ++departed;
                   });
    pds::PacketIdAllocator ids;
    pds::Rng master(1234);
    std::vector<std::unique_ptr<pds::RenewalSource>> sources;
    for (pds::ClassId c = 0; c < 4; ++c) {
      sources.push_back(std::make_unique<pds::RenewalSource>(
          sim, ids, c, pds::exponential_gaps(kMeanGap),
          pds::fixed_size(kBytes), master.split(),
          [&link](pds::Packet p) { link.arrive(std::move(p)); }));
      sources.back()->start(pds::kTimeZero);
    }
    state.ResumeTiming();

    // Warmup grows the event queue and the class rings to steady state;
    // only the post-warmup stretch is charged to the allocation budget.
    sim.run_until(kWarmup);
    const std::uint64_t before = pds::bench::heap_allocations();
    const std::uint64_t departed_before = departed;
    sim.run_until(kRunTime);
    allocs += pds::bench::heap_allocations() - before;
    packets += departed - departed_before;
    events += sim.executed_events();

    state.PauseTiming();
    for (auto& src : sources) src->stop();
    state.ResumeTiming();
    benchmark::DoNotOptimize(departed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_pkt"] =
      packets ? static_cast<double>(allocs) / static_cast<double>(packets)
              : 0.0;
  state.counters["pkts"] = static_cast<double>(packets);
  const std::string err = pds::bench::check_zero_steady_allocs(allocs, packets);
  if (!err.empty()) state.SkipWithError(err.c_str());
}

}  // namespace

BENCHMARK(BM_Heap)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_PacketPipelineHeap);
