#include <gtest/gtest.h>

#include "core/study_a.hpp"

namespace pds {
namespace {

StudyAConfig quick_config() {
  StudyAConfig c;
  c.sim_time = 5.0e4;
  c.seed = 7;
  return c;
}

TEST(StudyA, ProducesDeparturesInEveryClass) {
  const auto r = run_study_a(quick_config());
  ASSERT_EQ(r.mean_delays.size(), 4u);
  ASSERT_EQ(r.departures.size(), 4u);
  for (const auto n : r.departures) EXPECT_GT(n, 50u);
  for (const auto d : r.mean_delays) EXPECT_GT(d, 0.0);
  EXPECT_EQ(r.ratios.size(), 3u);
}

TEST(StudyA, MeasuredUtilizationTracksTarget) {
  auto c = quick_config();
  c.utilization = 0.8;
  c.sim_time = 2.0e5;
  const auto r = run_study_a(c);
  EXPECT_NEAR(r.measured_utilization, 0.8, 0.1);
}

TEST(StudyA, LoadFractionsShapeClassThroughput) {
  auto c = quick_config();
  c.sim_time = 2.0e5;
  const auto r = run_study_a(c);
  const double total = static_cast<double>(
      r.departures[0] + r.departures[1] + r.departures[2] + r.departures[3]);
  EXPECT_NEAR(static_cast<double>(r.departures[0]) / total, 0.4, 0.05);
  EXPECT_NEAR(static_cast<double>(r.departures[3]) / total, 0.1, 0.05);
}

TEST(StudyA, IsDeterministicPerSeed) {
  const auto a = run_study_a(quick_config());
  const auto b = run_study_a(quick_config());
  ASSERT_EQ(a.total_departures, b.total_departures);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a.mean_delays[i], b.mean_delays[i]);
  }
  auto c = quick_config();
  c.seed = 8;
  const auto other = run_study_a(c);
  EXPECT_NE(a.total_departures, other.total_departures);
}

TEST(StudyA, MonitorsProduceRdSeriesPerTau) {
  auto c = quick_config();
  c.monitor_taus = {10.0 * kPUnit, 1000.0 * kPUnit};
  const auto r = run_study_a(c);
  ASSERT_EQ(r.rd_per_tau.size(), 2u);
  EXPECT_GT(r.rd_per_tau[0].size(), r.rd_per_tau[1].size());
  EXPECT_FALSE(r.rd_per_tau[1].empty());
}

TEST(StudyA, TraceIsTimeOrderedAndMatchesDepartureVolume) {
  auto c = quick_config();
  c.record_trace = true;
  const auto r = run_study_a(c);
  ASSERT_FALSE(r.trace.empty());
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].time, r.trace[i - 1].time);
  }
  // Departures (post-warmup) cannot exceed arrivals.
  EXPECT_LE(r.total_departures, r.trace.size());
}

TEST(StudyA, PerPacketRecordsOnlyWhenRequested) {
  auto c = quick_config();
  const auto without = run_study_a(c);
  EXPECT_TRUE(without.per_packet.empty());
  c.record_departures = true;
  const auto with = run_study_a(c);
  EXPECT_EQ(with.per_packet.size(), with.total_departures);
  for (std::size_t i = 1; i < with.per_packet.size(); ++i) {
    EXPECT_GE(with.per_packet[i].time, with.per_packet[i - 1].time);
  }
}

TEST(StudyA, WarmupShrinksTheSample) {
  auto c = quick_config();
  c.warmup_fraction = 0.0;
  const auto full = run_study_a(c);
  c.warmup_fraction = 0.5;
  const auto half = run_study_a(c);
  EXPECT_LT(half.total_departures, full.total_departures);
}

TEST(StudyA, AverageRatiosOverSeedsUsesDistinctSeeds) {
  auto c = quick_config();
  c.sim_time = 2.0e4;
  const auto avg = average_ratios_over_seeds(c, 3);
  ASSERT_EQ(avg.size(), 3u);
  for (const double r : avg) EXPECT_GT(r, 0.0);
}

TEST(StudyA, ValidatesConfig) {
  auto c = quick_config();
  c.utilization = 1.5;
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
  c = quick_config();
  c.load_fractions = {1.0};
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
  c = quick_config();
  c.warmup_fraction = 1.0;
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
  c = quick_config();
  c.monitor_taus = {0.0};
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
}

TEST(StudyA, RejectsPlrWithoutABuffer) {
  auto c = quick_config();
  c.drop_policy = DropPolicy::kPlr;
  c.ldp = {8.0, 4.0, 2.0, 1.0};
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.buffer_packets = 50;
  EXPECT_NO_THROW(c.validate());
}

TEST(StudyA, OverloadNeedsABuffer) {
  // A lossless link at or above capacity has no steady state; a finite
  // buffer sheds the excess and the run completes.
  auto c = quick_config();
  c.utilization = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.utilization = 1.2;
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
  c.buffer_packets = 50;
  const auto r = run_study_a(c);
  EXPECT_GT(r.total_drops, 0u);
  EXPECT_GT(r.measured_utilization, 0.95);
  ASSERT_EQ(r.loss_rates.size(), 4u);
  EXPECT_EQ(r.loss_ratios.size(), 3u);
  EXPECT_GT(r.aggregate_loss_rate, 0.0);
}

TEST(StudyA, LosslessRunLeavesLossFieldsEmpty) {
  const auto r = run_study_a(quick_config());
  EXPECT_TRUE(r.loss_rates.empty());
  EXPECT_TRUE(r.loss_ratios.empty());
  EXPECT_EQ(r.total_arrivals, 0u);
  EXPECT_EQ(r.total_drops, 0u);
  EXPECT_EQ(r.aggregate_loss_rate, 0.0);
}

TEST(StudyA, RejectsWeightsControllerOnFcfs) {
  // FCFS has no weights to steer: the config fails validation, so the run
  // throws before any event runs rather than at the first controller update.
  auto c = quick_config();
  c.scheduler = SchedulerKind::kFcfs;
  c.conformance_tau = 100.0;
  c.controller.mode = ControllerMode::kWeights;
  c.controller.period = 100.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
  c.scheduler = SchedulerKind::kScfq;  // SCFQ and VC do have weights
  EXPECT_NO_THROW(c.validate());
}

TEST(StudyA, PoissonArrivalModelRuns) {
  auto c = quick_config();
  c.arrivals = ArrivalModel::kPoisson;
  c.sim_time = 1.0e5;
  const auto r = run_study_a(c);
  EXPECT_GT(r.total_departures, 1000u);
  // Poisson traffic is markedly less bursty: same seed and load, both
  // models still deliver ordered class delays.
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_GT(r.mean_delays[i], r.mean_delays[i + 1]);
  }
}

TEST(StudyA, ReportedPercentilesAreOrdered) {
  auto c = quick_config();
  c.report_percentiles = {50.0, 95.0, 99.0};
  const auto r = run_study_a(c);
  ASSERT_EQ(r.delay_percentiles.size(), 4u);
  for (ClassId cls = 0; cls < 4; ++cls) {
    ASSERT_EQ(r.delay_percentiles[cls].size(), 3u);
    EXPECT_LE(r.delay_percentiles[cls][0], r.delay_percentiles[cls][1]);
    EXPECT_LE(r.delay_percentiles[cls][1], r.delay_percentiles[cls][2]);
    // The median cannot exceed... the mean can sit either side of the
    // median for skewed delays, but p99 must dominate the mean.
    EXPECT_GE(r.delay_percentiles[cls][2], r.mean_delays[cls]);
  }
  // Percentile-level differentiation: the p95 of a higher class stays
  // below the p95 of the class beneath it.
  for (ClassId cls = 0; cls + 1 < 4; ++cls) {
    EXPECT_GT(r.delay_percentiles[cls][1],
              r.delay_percentiles[cls + 1][1]);
  }
}

TEST(StudyA, PercentilesOffByDefault) {
  const auto r = run_study_a(quick_config());
  EXPECT_TRUE(r.delay_percentiles.empty());
}

TEST(StudyA, RejectsBadPercentiles) {
  auto c = quick_config();
  c.report_percentiles = {101.0};
  EXPECT_THROW(run_study_a(c), std::invalid_argument);
}

TEST(StudyA, SawtoothIndexPopulated) {
  const auto r = run_study_a(quick_config());
  ASSERT_EQ(r.sawtooth_index.size(), 4u);
  for (const double s : r.sawtooth_index) EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace pds
