// Golden pins of the kernel's execution order: FNV-1a hashes of Study A's
// PacketTracer lifecycle trace (Pareto and Poisson arrivals) and of a Study
// A run under fault and control plans. The traced lifecycles cover
// arrival/enqueue/dequeue/depart with full timestamps, so any change to
// execution order, trace sampling or output formatting shows up as a hash
// mismatch and must be an intentional, reviewed break of the determinism
// contract. The pins need the observability sites compiled in (PDS_OBS=ON).
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

// FNV-1a from 1469598103934665603, the standard offset basis without its
// last digit: the trace pins below were recorded with this basis.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  return hash;
}

StudyAConfig base_config() {
  StudyAConfig c;
  c.sim_time = 2.0e4;
  c.seed = 42;
  c.trace_sample = 0.05;
  return c;
}

TEST(DispatchEquivalence, StudyATraceMatchesGoldenHash) {
  TempFile trace_file("pds_golden_trace.csv");
  StudyAConfig cfg = base_config();
  cfg.trace_out = trace_file.path;
  const StudyAResult result = run_study_a(cfg);

  EXPECT_EQ(result.trace_records, 292u);
  EXPECT_EQ(fnv1a(slurp(trace_file.path)), 0xe924853a494d050eULL)
      << "Study A trace diverged from the golden execution order";
}

// The only Study A trace pin with Poisson arrivals: exponential gaps draw
// from the seed stream differently from the Pareto default, so this pins a
// second execution order end to end.
TEST(DispatchEquivalence, StudyAPoissonTraceMatchesGoldenHash) {
  TempFile trace_file("pds_golden_trace_poisson.csv");
  StudyAConfig cfg = base_config();
  cfg.arrivals = ArrivalModel::kPoisson;
  cfg.seed = 7;
  cfg.trace_out = trace_file.path;
  const StudyAResult result = run_study_a(cfg);

  EXPECT_EQ(result.trace_records, 380u);
  EXPECT_EQ(fnv1a(slurp(trace_file.path)), 0x57d69da7b8de050bULL)
      << "Study A Poisson trace diverged from the golden execution order";
}

// Plan-engine pin: FNV-1a of the report JSON, the span JSON and the
// conformance JSONL of a Study A run under a fault plan and a control plan.
// It covers what the fabric report pins do not: the fault/ctrl span tracks,
// the ctrl.* counters, and the episode attribution of conformance
// violations. It hashes from the standard FNV-1a offset basis.
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
