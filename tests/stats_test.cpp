#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rng/rng.hpp"
#include "stats/delay_stats.hpp"
#include "stats/interval_monitor.hpp"
#include "stats/percentile.hpp"
#include "stats/running_stats.hpp"
#include "stats/sawtooth.hpp"

namespace pds {
namespace {

// --------------------------------------------------------- RunningStats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAccessThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.variance(), std::invalid_argument);
  EXPECT_THROW(s.min(), std::invalid_argument);
}

TEST(RunningStats, MergeMatchesPooledComputation) {
  RunningStats a, b, pooled;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

// ----------------------------------------------------------- percentile

TEST(Percentile, MatchesHandComputedValues) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 3.25);
}

TEST(Percentile, UnsortedInputIsSortedInternally) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
}

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 10.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
}

// The reference: a full sort and the same interpolation between closest
// ranks.
double sorted_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TEST(Percentile, SelectionMatchesAFullSortBitForBit) {
  // Random sizes from 1 to 3,000; half the sets draw from 16 values, so
  // ranks land inside runs of duplicates. percentile, percentiles over
  // ascending ps (selection on a shrinking tail) and over unordered ps
  // must all give the full sort's values, bit for bit.
  const std::vector<double> ascending = {0.0, 50.0, 95.0, 99.0, 100.0};
  const std::vector<double> unordered = {99.0, 0.0, 100.0, 50.0, 95.0, 50.0};
  Rng rng(2718);
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.uniform_index(round < 20 ? 8 : 3000);
    const bool duplicates = round % 2 == 0;
    std::vector<double> v(n);
    for (double& x : v) {
      x = duplicates ? static_cast<double>(rng.uniform_index(16))
                     : rng.uniform01() * 1e3;
    }
    SCOPED_TRACE(testing::Message() << "n=" << n << " round " << round);
    for (const double p : ascending) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(v, p)),
                std::bit_cast<std::uint64_t>(sorted_percentile(v, p)))
          << "p=" << p;
    }
    for (const auto& ps : {ascending, unordered}) {
      const std::vector<double> got = percentiles(v, ps);
      ASSERT_EQ(got.size(), ps.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(sorted_percentile(v, ps[i])))
            << "p=" << ps[i];
      }
    }
  }
}

TEST(SampleSet, AccumulatesAndSummarizes) {
  SampleSet s;
  for (double x = 1.0; x <= 5.0; x += 1.0) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 3.0);
  const auto ps = s.percentiles({0.0, 100.0});
  EXPECT_DOUBLE_EQ(ps[0], 1.0);
  EXPECT_DOUBLE_EQ(ps[1], 5.0);
}

// --------------------------------------------------------- ClassDelayStats

TEST(ClassDelayStats, RecordsPerClassAfterWarmup) {
  ClassDelayStats stats(2, 10.0);
  stats.record(0, 99.0, 5.0);   // warmup: ignored
  stats.record(0, 4.0, 11.0);
  stats.record(0, 6.0, 12.0);
  stats.record(1, 2.0, 13.0);
  EXPECT_EQ(stats.of(0).count(), 2u);
  EXPECT_DOUBLE_EQ(stats.of(0).mean(), 5.0);
  const auto means = stats.means();
  EXPECT_DOUBLE_EQ(means[1], 2.0);
  const auto ratios = stats.successive_ratios();
  ASSERT_EQ(ratios.size(), 1u);
  EXPECT_DOUBLE_EQ(ratios[0], 2.5);
}

TEST(ClassDelayStats, RejectsBadRecords) {
  ClassDelayStats stats(2, 0.0);
  EXPECT_THROW(stats.record(5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(stats.record(0, -1.0, 1.0), std::invalid_argument);
}

// ------------------------------------------------------------ interval_rd

TEST(IntervalRd, AllActiveAveragesAdjacentRatios) {
  double rd = 0.0;
  ASSERT_TRUE(interval_rd({8.0, 4.0, 2.0, 1.0},
                          {true, true, true, true}, &rd));
  EXPECT_DOUBLE_EQ(rd, 2.0);
}

TEST(IntervalRd, InactiveClassUsesGeometricNormalization) {
  // Classes 0 and 2 active with ratio 4 across a gap of 2 -> per-step 2.
  double rd = 0.0;
  ASSERT_TRUE(interval_rd({8.0, 0.0, 2.0, 0.0},
                          {true, false, true, false}, &rd));
  EXPECT_DOUBLE_EQ(rd, 2.0);
}

TEST(IntervalRd, MixedGapsAverageCorrectly) {
  // Pairs: (0,1) ratio 3; (1,3) ratio 9 over gap 2 -> 3. Mean = 3.
  double rd = 0.0;
  ASSERT_TRUE(interval_rd({9.0, 3.0, 0.0, 1.0 / 3.0},
                          {true, true, false, true}, &rd));
  EXPECT_NEAR(rd, 3.0, 1e-12);
}

TEST(IntervalRd, UndefinedWithFewerThanTwoActive) {
  double rd = 0.0;
  EXPECT_FALSE(interval_rd({1.0, 0.0}, {true, false}, &rd));
  EXPECT_FALSE(interval_rd({0.0, 0.0}, {false, false}, &rd));
}

TEST(IntervalRd, ZeroActiveMeanIsUndefined) {
  double rd = 0.0;
  EXPECT_FALSE(interval_rd({1.0, 0.0}, {true, true}, &rd));
}

// --------------------------------------------------- IntervalDelayMonitor

TEST(IntervalMonitor, BucketsByDepartureTime) {
  IntervalDelayMonitor mon(2, 10.0, 0.0);
  // Interval [0,10): ratio 4/2 = 2. Interval [10,20): ratio 9/3 = 3.
  mon.record(0, 4.0, 1.0);
  mon.record(1, 2.0, 2.0);
  mon.record(0, 9.0, 12.0);
  mon.record(1, 3.0, 15.0);
  mon.finish();
  const auto& rds = mon.rd_values();
  ASSERT_EQ(rds.size(), 2u);
  EXPECT_DOUBLE_EQ(rds[0], 2.0);
  EXPECT_DOUBLE_EQ(rds[1], 3.0);
}

TEST(IntervalMonitor, SkipsEmptyIntervalsAndCountsUndefined) {
  IntervalDelayMonitor mon(2, 10.0, 0.0);
  mon.record(0, 4.0, 1.0);   // interval 0: only class 0 -> undefined
  mon.record(0, 5.0, 55.0);  // intervals 1-4 empty; interval 5 undefined
  mon.record(1, 5.0, 57.0);
  mon.finish();
  EXPECT_EQ(mon.rd_values().size(), 1u);  // interval 5 has both classes
  EXPECT_EQ(mon.undefined_intervals(), 1u);
  EXPECT_EQ(mon.intervals_seen(), 2u);
}

TEST(IntervalMonitor, HonorsWarmupStart) {
  IntervalDelayMonitor mon(2, 10.0, 100.0);
  mon.record(0, 4.0, 50.0);  // before start: dropped
  mon.record(0, 4.0, 101.0);
  mon.record(1, 2.0, 102.0);
  mon.finish();
  ASSERT_EQ(mon.rd_values().size(), 1u);
  EXPECT_DOUBLE_EQ(mon.rd_values()[0], 2.0);
}

TEST(IntervalMonitor, AveragesWithinBucket) {
  IntervalDelayMonitor mon(2, 10.0, 0.0);
  mon.record(0, 2.0, 1.0);
  mon.record(0, 6.0, 2.0);   // class-0 mean 4
  mon.record(1, 1.0, 3.0);
  mon.record(1, 3.0, 4.0);   // class-1 mean 2
  mon.finish();
  ASSERT_EQ(mon.rd_values().size(), 1u);
  EXPECT_DOUBLE_EQ(mon.rd_values()[0], 2.0);
}

TEST(IntervalMonitor, RequiresTwoClassesAndPositiveTau) {
  EXPECT_THROW(IntervalDelayMonitor(1, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(IntervalDelayMonitor(2, 0.0, 0.0), std::invalid_argument);
}

// --------------------------------------------------------- SawtoothIndex

TEST(Sawtooth, SmoothSequenceScoresLow) {
  SawtoothIndex s(1);
  for (int i = 0; i < 100; ++i) s.record(0, 50.0 + (i % 2));
  // Total variation 1 per step against a mean of ~50.5.
  EXPECT_LT(s.index(0), 0.03);
  EXPECT_EQ(s.collapses(0), 0u);
}

TEST(Sawtooth, RampAndResetScoresHighAndCountsCollapses) {
  SawtoothIndex s(1);
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (int i = 0; i <= 10; ++i) s.record(0, 10.0 * i);  // ramp to 100
    // next cycle restarts at 0 -> collapse of 100 > half the mean (~50)
  }
  EXPECT_GT(s.index(0), 0.3);
  EXPECT_GE(s.collapses(0), 9u);
}

TEST(Sawtooth, PerClassIsolationAndOverall) {
  SawtoothIndex s(2);
  for (int i = 0; i < 50; ++i) s.record(0, 10.0);
  for (int i = 0; i < 50; ++i) s.record(1, (i % 2) ? 100.0 : 0.0);
  EXPECT_DOUBLE_EQ(s.index(0), 0.0);
  EXPECT_GT(s.index(1), 0.5);
  EXPECT_GT(s.overall(), s.index(0));
  EXPECT_EQ(s.total_collapses(), s.collapses(1));
}

TEST(Sawtooth, FewSamplesScoreZero) {
  SawtoothIndex s(1);
  EXPECT_DOUBLE_EQ(s.index(0), 0.0);
  s.record(0, 5.0);
  EXPECT_DOUBLE_EQ(s.index(0), 0.0);
}

}  // namespace
}  // namespace pds
