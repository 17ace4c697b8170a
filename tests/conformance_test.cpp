// ConformanceMonitor unit tests: window mechanics, thresholds, min-sample
// feasibility, fault-episode attribution, metrics binding, and the
// violation JSONL log.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/conformance.hpp"
#include "obs/metrics.hpp"

namespace pds {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

ConformanceOptions opts(SimTime tau, double tolerance = 0.25,
                        std::uint64_t min_samples = 1, SimTime start = 0.0) {
  ConformanceOptions o;
  o.tau = tau;
  o.start = start;
  o.tolerance = tolerance;
  o.min_samples = min_samples;
  return o;
}

// Feeds `per_class` samples of each class with the given delays into the
// window containing `t`.
void feed(ConformanceMonitor& m, const std::vector<double>& delays,
          SimTime t, int per_class = 1) {
  for (int k = 0; k < per_class; ++k) {
    for (ClassId c = 0; c < delays.size(); ++c) {
      m.record(c, delays[c], t);
    }
  }
}

TEST(ConformanceMonitor, DisabledWhenTauZero) {
  ConformanceMonitor m({1.0, 2.0}, opts(0.0));
  EXPECT_FALSE(m.enabled());
  m.record(0, 1.0, 5.0);
  m.finish();
  EXPECT_EQ(m.summary().windows, 0u);
}

TEST(ConformanceMonitor, RejectsDegenerateConfigs) {
  EXPECT_THROW(ConformanceMonitor({1.0}, opts(10.0)), std::invalid_argument);
  EXPECT_THROW(ConformanceMonitor({0.0, 1.0}, opts(10.0)),
               std::invalid_argument);
}

TEST(ConformanceMonitor, PerfectRatiosProduceNoViolations) {
  // SDPs {1,2,4}: targets d0/d1 = d1/d2 = 2. Feed exactly proportional
  // delays in every window.
  ConformanceMonitor m({1.0, 2.0, 4.0}, opts(10.0));
  for (int w = 0; w < 5; ++w) {
    feed(m, {8.0, 4.0, 2.0}, 10.0 * w + 5.0);
  }
  m.finish();
  const auto s = m.summary();
  EXPECT_EQ(s.windows, 5u);
  EXPECT_EQ(s.pairs_checked, 10u);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_DOUBLE_EQ(s.max_error, 0.0);
}

TEST(ConformanceMonitor, ViolationPastToleranceIsRecordedPerPair) {
  // Target d0/d1 = 2; observed 3 => error 0.5 > 0.25. Second pair is exact.
  ConformanceMonitor m({1.0, 2.0, 4.0}, opts(10.0, 0.25));
  feed(m, {12.0, 4.0, 2.0}, 5.0);
  m.finish();
  const auto s = m.summary();
  ASSERT_EQ(m.violations().size(), 1u);
  const auto& v = m.violations().front();
  EXPECT_EQ(v.lo, 0u);
  EXPECT_EQ(v.window, 0u);
  EXPECT_DOUBLE_EQ(v.observed, 3.0);
  EXPECT_DOUBLE_EQ(v.target, 2.0);
  EXPECT_DOUBLE_EQ(v.error, 0.5);
  ASSERT_EQ(s.per_pair_violations.size(), 2u);
  EXPECT_EQ(s.per_pair_violations[0], 1u);
  EXPECT_EQ(s.per_pair_violations[1], 0u);
  EXPECT_DOUBLE_EQ(s.max_error, 0.5);
}

TEST(ConformanceMonitor, ErrorAtToleranceIsNotAViolation) {
  // Observed 2.5 vs target 2 => error 0.25 == tolerance: not a violation
  // (strictly-greater contract).
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  feed(m, {10.0, 4.0}, 5.0);
  m.finish();
  EXPECT_EQ(m.summary().violations, 0u);
  EXPECT_DOUBLE_EQ(m.summary().max_error, 0.25);
}

TEST(ConformanceMonitor, WindowStateResetsBetweenWindows) {
  // A violating window followed by a clean one: the clean window must not
  // inherit the earlier sums.
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  feed(m, {20.0, 4.0}, 5.0);   // window 0: observed 5, violation
  feed(m, {8.0, 4.0}, 15.0);   // window 1: observed 2, exact
  m.finish();
  const auto s = m.summary();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.violations, 1u);
  EXPECT_EQ(m.violations().front().window, 0u);
}

TEST(ConformanceMonitor, MinSamplesGateMarksPairsUndefined) {
  // min_samples = 3 but only one sample per class: the pair is undefined,
  // never checked, never a violation — even with a wildly wrong ratio.
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25, 3));
  feed(m, {100.0, 1.0}, 5.0);
  m.finish();
  const auto s = m.summary();
  EXPECT_EQ(s.pairs_checked, 0u);
  EXPECT_EQ(s.pairs_undefined, 1u);
  EXPECT_EQ(s.violations, 0u);
}

TEST(ConformanceMonitor, WarmupStartSkipsEarlyDepartures) {
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25, 1, /*start=*/100.0));
  feed(m, {30.0, 4.0}, 50.0);  // before start: ignored entirely
  feed(m, {8.0, 4.0}, 105.0);  // first window is [100, 110)
  m.finish();
  const auto s = m.summary();
  EXPECT_EQ(s.windows, 1u);
  EXPECT_EQ(s.violations, 0u);
}

TEST(ConformanceMonitor, EmptyGapFastForwardCountsWindows) {
  // Samples in window 0, a long silent stretch, then window 1000: every
  // intermediate empty window counts (with its pair undefined), exactly as
  // if each had been closed individually.
  ConformanceMonitor m({1.0, 2.0}, opts(10.0));
  feed(m, {8.0, 4.0}, 5.0);
  feed(m, {8.0, 4.0}, 10005.0);
  m.finish();
  const auto s = m.summary();
  EXPECT_EQ(s.windows, 1001u);
  EXPECT_EQ(s.pairs_checked, 2u);
  EXPECT_EQ(s.pairs_undefined, 999u);
}

TEST(ConformanceMonitor, FinishClosesPartialWindowAndIsIdempotent) {
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  feed(m, {12.0, 4.0}, 3.0);  // partial window, observed 3
  m.finish();
  m.finish();
  m.record(0, 99.0, 50.0);  // after finish: ignored
  EXPECT_EQ(m.summary().windows, 1u);
  EXPECT_EQ(m.summary().violations, 1u);
}

TEST(ConformanceMonitor, FaultContextStampsViolations) {
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  std::string active;
  m.set_fault_context([&active] { return active; });

  active = "degrade link";
  feed(m, {20.0, 4.0}, 5.0);
  m.record(1, 4.0, 10.0);  // crosses the boundary while the fault is active
  active = "";
  feed(m, {20.0, 4.0}, 15.0);
  m.finish();

  const auto s = m.summary();
  ASSERT_EQ(m.violations().size(), 2u);
  EXPECT_EQ(m.violations()[0].fault, "degrade link");
  EXPECT_EQ(m.violations()[1].fault, "");
  EXPECT_EQ(s.violations_during_faults, 1u);
}

TEST(ConformanceMonitor, SinkSeesViolationsAsTheyHappen) {
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  std::vector<std::uint64_t> windows;
  m.set_violation_sink([&windows](const ConformanceViolation& v) {
    windows.push_back(v.window);
  });
  feed(m, {20.0, 4.0}, 5.0);
  feed(m, {20.0, 4.0}, 15.0);
  m.finish();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], 0u);
  EXPECT_EQ(windows[1], 1u);
}

TEST(ConformanceMonitor, BindsGaugesAndViolationCounter) {
  MetricsRegistry reg;
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  m.bind_metrics(reg);
  feed(m, {12.0, 4.0}, 5.0);  // observed 3, error 0.5: violation
  m.finish();
  EXPECT_DOUBLE_EQ(reg.gauge("conformance.err.c0_c1").value(), 0.5);
  EXPECT_EQ(reg.counter("conformance.violations").total(), 1u);
}

TEST(ConformanceMonitor, ClassNamerRenamesMetricKeys) {
  MetricsRegistry reg;
  ConformanceMonitor m({1.0, 2.0}, opts(10.0));
  m.set_class_namer([](ClassId c) { return "k" + std::to_string(c + 1); });
  m.bind_metrics(reg);
  EXPECT_NO_THROW(reg.gauge("conformance.err.k1_k2"));
  EXPECT_EQ(reg.size(), 2u);  // one pair gauge + the violation counter
}

TEST(ViolationLog, WritesJsonlAndCommitsOnClose) {
  TempFile file("conformance_viol.jsonl");
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  {
    ViolationLog log(file.path);
    m.set_violation_sink(
        [&log](const ConformanceViolation& v) { log.write(v); });
    feed(m, {12.0, 4.0}, 5.0);
    m.finish();
    // Not yet visible under the final name (atomic tmp + rename).
    std::ifstream before(file.path);
    EXPECT_FALSE(before.good());
    log.close();
    EXPECT_EQ(log.written(), 1u);
  }
  std::ifstream in(file.path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"window\":0"), std::string::npos);
  EXPECT_NE(line.find("\"lo\":\"c0\""), std::string::npos);
  EXPECT_NE(line.find("\"observed\":3"), std::string::npos);
  EXPECT_NE(line.find("\"target\":2"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));
}

TEST(ViolationLog, EscapesTheFaultContext) {
  TempFile file("conformance_escape.jsonl");
  ConformanceMonitor m({1.0, 2.0}, opts(10.0, 0.25));
  m.set_fault_context([] { return std::string("down \"a\\b\""); });
  {
    ViolationLog log(file.path);
    m.set_violation_sink(
        [&log](const ConformanceViolation& v) { log.write(v); });
    feed(m, {12.0, 4.0}, 5.0);
    m.finish();
    log.close();
    EXPECT_EQ(log.written(), 1u);
  }
  std::ifstream in(file.path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find(R"("fault":"down \"a\\b\"")"), std::string::npos)
      << line;
}

}  // namespace
}  // namespace pds
