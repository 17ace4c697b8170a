// Event-queue and dispatch microbenchmarks: the kernel's binary heap under
// the hold-model workload (the standard benchmark for simulator event sets:
// alternate pop and push-at-future-time on a steady population), the same
// model with a repeated-delay stream that rides a delay lane, plus an
// end-to-end packet pipeline (source -> scheduler -> link) that measures the
// allocation cost of the kernel's event dispatch per simulated packet.
//
// Every benchmark reports `allocs_per_*` counters backed by the counting
// operator-new in alloc_counter.cpp — the regression guard for the hot-path
// allocation budget (see docs/architecture.md).
#include <benchmark/benchmark.h>

#include <string>

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

// The fabrics' shape: `timers` far-ahead events, each re-armed a random
// delay ahead like RPC think and retry timers, beside a stream of 64 link
// completions, each re-armed one fixed transmission time ahead (441 B at
// 39.375 B/tu). Every push carries the tag Simulator::schedule_in would
// give it, so the stream rides a delay lane and the timers stay in the
// heap; `lane_share` is the share of measured pushes that rode a lane.
// After a warmup that grows the lane's ring, `allocs_per_op` must be
// exactly 0.0 (the run reports an error otherwise).
void BM_HoldRepeatedDelay(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStream = 64;
  constexpr double kTx = 441.0 / 39.375;
  constexpr double kTimerSpan = 2e4;
  constexpr int kSteps = 10000;
  const auto tx_tag = pds::HeapEventQueue::delay_tag(kTx);
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  std::uint64_t lane_pushes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pds::HeapEventQueue q;
    pds::Rng rng(99);
    std::uint64_t seq = 0;
    bool stream = false;  // set by the action of the event just popped
    for (std::size_t i = 0; i < timers; ++i) {
      q.push(rng.uniform01() * kTimerSpan, seq++,
             [&stream] { stream = false; });
    }
    for (std::size_t i = 0; i < kStream; ++i) {
      q.push(rng.uniform01() * kTx, seq++, [&stream] { stream = true; });
    }
    // Hold model: each pop runs its action and re-arms it.
    const auto step = [&] {
      pds::EventItem item = q.pop();
      item.action();
      const std::size_t in_lanes = q.in_lanes();
      if (stream) {
        q.push(item.time + kTx, seq++, std::move(item.action), tx_tag);
      } else {
        const double gap = rng.uniform01() * kTimerSpan;
        q.push(item.time + gap, seq++, std::move(item.action),
               pds::HeapEventQueue::delay_tag(gap));
      }
      return q.in_lanes() > in_lanes;
    };
    for (int i = 0; i < kSteps; ++i) step();
    state.ResumeTiming();
    const std::uint64_t before = pds::bench::heap_allocations();
    for (int i = 0; i < kSteps; ++i) lane_pushes += step() ? 1 : 0;
    allocs += pds::bench::heap_allocations() - before;
    ops += kSteps;
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
  state.counters["allocs_per_op"] =
      ops ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
  state.counters["lane_share"] =
      ops ? static_cast<double>(lane_pushes) / static_cast<double>(ops) : 0.0;
  if (allocs != 0) {
    const std::string err =
        "steady-state hold allocated: " + std::to_string(allocs) +
        " heap allocation(s) over " + std::to_string(ops) +
        " operations (expected 0)";
    state.SkipWithError(err.c_str());
  }
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
BENCHMARK(BM_HoldRepeatedDelay)->Arg(1024);
BENCHMARK(BM_PacketPipelineHeap);
