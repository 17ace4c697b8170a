// Scheduler micro-benchmarks (google-benchmark).
//
// The paper claims both WTP and packetized BPR are O(N) per departure and
// "implementable even in very high-speed links" for small N (Section 4).
// These benchmarks measure the enqueue+dequeue cost per packet as the class
// count N grows, for every scheduler in the library, on a pre-generated
// backlog-heavy workload. Dequeues go through dequeue(now), one decision
// per packet, the path Link transmits through.
#include <benchmark/benchmark.h>

#include <vector>

#include "alloc_counter.hpp"
#include "rng/rng.hpp"
#include "sched/factory.hpp"

namespace {

pds::SchedulerConfig make_config(std::uint32_t num_classes) {
  pds::SchedulerConfig c;
  double s = 1.0;
  for (std::uint32_t i = 0; i < num_classes; ++i) {
    c.sdp.push_back(s);
    s *= 2.0;
  }
  c.link_capacity = 39.375;
  return c;
}

std::vector<pds::Packet> make_workload(std::uint32_t num_classes,
                                       std::size_t count) {
  pds::Rng rng(7);
  std::vector<pds::Packet> packets;
  packets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += 0.5;
    pds::Packet p;
    p.id = i;
    p.cls = static_cast<pds::ClassId>(rng.uniform_index(num_classes));
    p.size_bytes = 40 + static_cast<std::uint32_t>(rng.uniform_index(1460));
    p.arrival = t;
    packets.push_back(p);
  }
  return packets;
}

void run_pass(benchmark::State& state, pds::SchedulerKind kind) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto workload = make_workload(n, 4096);
  std::uint64_t allocs = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sched = pds::make_scheduler(kind, make_config(n));
    state.ResumeTiming();
    const std::uint64_t before = pds::bench::heap_allocations();
    // Build up a deep backlog, then alternate enqueue/dequeue (steady
    // state), then drain — exercising selection against full queues.
    std::size_t i = 0;
    for (; i < workload.size() / 2; ++i) {
      sched->enqueue(workload[i], workload[i].arrival);
    }
    double now = workload[i - 1].arrival;
    for (; i < workload.size(); ++i) {
      sched->enqueue(workload[i], workload[i].arrival);
      now = workload[i].arrival + 0.25;
      benchmark::DoNotOptimize(sched->dequeue(now));
    }
    while (auto p = sched->dequeue(now)) benchmark::DoNotOptimize(p);
    allocs += pds::bench::heap_allocations() - before;
    packets += workload.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
  state.counters["allocs_per_pkt"] =
      packets ? static_cast<double>(allocs) / static_cast<double>(packets)
              : 0.0;
}

void BM_Fcfs(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kFcfs); }
void BM_StrictPriority(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kStrictPriority);
}
void BM_Wtp(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kWtp); }
void BM_Bpr(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kBpr); }
void BM_Additive(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kAdditiveWtp);
}
void BM_Pad(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kPad); }
void BM_Hpd(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kHpd); }
void BM_Drr(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kDrr); }
void BM_Scfq(benchmark::State& s) { run_pass(s, pds::SchedulerKind::kScfq); }
void BM_VirtualClock(benchmark::State& s) {
  run_pass(s, pds::SchedulerKind::kVirtualClock);
}

}  // namespace

BENCHMARK(BM_Fcfs)->Arg(4)->Arg(16);
BENCHMARK(BM_StrictPriority)->Arg(4)->Arg(16);
BENCHMARK(BM_Wtp)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Bpr)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_Additive)->Arg(4)->Arg(16);
BENCHMARK(BM_Pad)->Arg(4)->Arg(16);
BENCHMARK(BM_Hpd)->Arg(4)->Arg(16);
BENCHMARK(BM_Drr)->Arg(4)->Arg(16);
BENCHMARK(BM_Scfq)->Arg(4)->Arg(16);
BENCHMARK(BM_VirtualClock)->Arg(4)->Arg(16);
