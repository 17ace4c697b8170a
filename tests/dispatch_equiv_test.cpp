// Differential test for the event-dispatch refactor: the kernel's execution
// order must be bit-identical under both pending-event-set implementations.
// Runs Study A twice with the same seed — binary heap vs calendar queue —
// and asserts the PacketTracer lifecycle files are byte-identical, plus the
// aggregate results agree exactly.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/study_a.hpp"

namespace pds {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StudyAConfig base_config() {
  StudyAConfig c;
  c.sim_time = 2.0e4;
  c.seed = 42;
  c.trace_sample = 0.05;
  return c;
}

TEST(DispatchEquivalence, HeapAndCalendarProduceByteIdenticalTraces) {
  TempFile heap_file("pds_equiv_heap.csv");
  TempFile cal_file("pds_equiv_calendar.csv");

  StudyAConfig heap_cfg = base_config();
  heap_cfg.event_queue = EventQueueKind::kBinaryHeap;
  heap_cfg.trace_out = heap_file.path;
  const StudyAResult heap = run_study_a(heap_cfg);

  StudyAConfig cal_cfg = base_config();
  cal_cfg.event_queue = EventQueueKind::kCalendar;
  cal_cfg.trace_out = cal_file.path;
  const StudyAResult cal = run_study_a(cal_cfg);

  // The traced lifecycles cover arrival/enqueue/dequeue/depart with full
  // timestamps, so byte equality pins the whole execution order.
  ASSERT_GT(heap.trace_records, 0u);
  EXPECT_EQ(heap.trace_records, cal.trace_records);
  const std::string heap_bytes = slurp(heap_file.path);
  const std::string cal_bytes = slurp(cal_file.path);
  ASSERT_FALSE(heap_bytes.empty());
  EXPECT_TRUE(heap_bytes == cal_bytes)
      << "PacketTracer output diverged between event queue kinds";

  // Aggregates must agree exactly too (same arithmetic, same order).
  EXPECT_EQ(heap.total_departures, cal.total_departures);
  ASSERT_EQ(heap.mean_delays.size(), cal.mean_delays.size());
  for (std::size_t i = 0; i < heap.mean_delays.size(); ++i) {
    EXPECT_EQ(heap.mean_delays[i], cal.mean_delays[i]) << "class " << i;
    EXPECT_EQ(heap.departures[i], cal.departures[i]) << "class " << i;
  }
}

TEST(DispatchEquivalence, HoldsForPoissonArrivalsToo) {
  TempFile heap_file("pds_equiv_heap_poisson.csv");
  TempFile cal_file("pds_equiv_calendar_poisson.csv");

  StudyAConfig heap_cfg = base_config();
  heap_cfg.arrivals = ArrivalModel::kPoisson;
  heap_cfg.seed = 7;
  heap_cfg.event_queue = EventQueueKind::kBinaryHeap;
  heap_cfg.trace_out = heap_file.path;
  const StudyAResult heap = run_study_a(heap_cfg);

  StudyAConfig cal_cfg = heap_cfg;
  cal_cfg.event_queue = EventQueueKind::kCalendar;
  cal_cfg.trace_out = cal_file.path;
  const StudyAResult cal = run_study_a(cal_cfg);

  ASSERT_GT(heap.trace_records, 0u);
  EXPECT_TRUE(slurp(heap_file.path) == slurp(cal_file.path))
      << "PacketTracer output diverged between event queue kinds";
  EXPECT_EQ(heap.total_departures, cal.total_departures);
}

// Golden-trace regression: the two-queue differential above would pass if
// both implementations drifted *together* (say, a shared kernel change
// that reorders equal-time events). Pinning the FNV-1a hash of the Study A
// trace catches that: any change to execution order, trace sampling, or
// CSV formatting shows up as a hash mismatch and must be an intentional,
// reviewed break of the determinism contract.
TEST(DispatchEquivalence, StudyATraceMatchesGoldenHash) {
  constexpr std::uint64_t kGoldenFnv1a = 0xe924853a494d050eULL;
  constexpr std::uint64_t kGoldenRecords = 292;

  for (const auto kind :
       {EventQueueKind::kBinaryHeap, EventQueueKind::kCalendar}) {
    TempFile trace_file("pds_golden_trace.csv");
    StudyAConfig cfg = base_config();
    cfg.event_queue = kind;
    cfg.trace_out = trace_file.path;
    const StudyAResult result = run_study_a(cfg);

    const std::string bytes = slurp(trace_file.path);
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
    for (const unsigned char c : bytes) {
      hash ^= c;
      hash *= 1099511628211ULL;  // FNV-1a prime
    }
    EXPECT_EQ(result.trace_records, kGoldenRecords)
        << "queue kind " << static_cast<int>(kind);
    EXPECT_EQ(hash, kGoldenFnv1a)
        << "queue kind " << static_cast<int>(kind)
        << ": Study A trace diverged from the golden execution order";
  }
}

// Plan-engine pin: FNV-1a of the report JSON, the span JSON and the
// conformance JSONL of a Study A run under a fault plan and a control plan.
// It covers what the fabric report pins do not: the fault/ctrl span tracks,
// the ctrl.* counters, and the episode attribution of conformance
// violations. Like the trace hash above it needs the observability sites
// compiled in (PDS_OBS=ON).
TEST(DispatchEquivalence, StudyAUnderFaultAndControlPlansMatchesGoldenHash) {
  TempFile report("plans_report.json");
  TempFile spans("plans_spans.json");
  TempFile violations("plans_conformance.jsonl");
  TempFile metrics("plans_metrics.csv");
  StudyAConfig config;
  config.sim_time = 2.0e5;
  config.seed = 11;
  config.fault_plan =
      "seed 4\n"
      "down link at=2e4 for=3e3 mode=hold\n"
      "down link at=5e4 for=2e3 mode=drop\n"
      "degrade link at=8e4 for=1e4 factor=0.5\n"
      "stall link at=1.1e5 for=2e3\n";
  config.control_plan =
      "retune link at=3e4 w=1,3,9,27\n"
      "swap link at=6e4 sched=hpd\n"
      "retune link at=7e4 g=0.5\n"
      "class link at=9e4 drain=0\n"
      "class link at=1e5 add=0\n"
      "shed link at=1.2e5 for=2e4 watermark=30 classes=2\n";
  config.metrics_out = metrics.path;
  config.spans_out = spans.path;
  config.conformance_tau = 500.0;
  config.conformance_out = violations.path;
  config.report_out = report.path;
  const StudyAResult result = run_study_a(config);
  const std::string bytes =
      slurp(report.path) + slurp(spans.path) + slurp(violations.path);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0xa3ec73ac70a2439bULL);
  // The pin covers every episode, the exception paths and attribution.
  EXPECT_EQ(result.fault_episodes, 4u);
  EXPECT_EQ(result.control_episodes, 6u);
  EXPECT_GT(result.fault_drops, 0u);
  EXPECT_GT(result.drain_drops, 0u);
  EXPECT_GT(result.shed_drops, 0u);
  EXPECT_NE(slurp(violations.path).find("shed link"), std::string::npos);
  EXPECT_NE(slurp(spans.path).find("\"sched\":\"hpd\""), std::string::npos);
}

}  // namespace
}  // namespace pds
