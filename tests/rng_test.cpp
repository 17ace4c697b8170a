#include <gtest/gtest.h>

#include <cmath>

#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

constexpr int kSamples = 200000;

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
  EXPECT_THROW(rng.uniform(1.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(5);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 70000; ++i) ++hits[rng.uniform_index(7)];
  for (const int h : hits) EXPECT_NEAR(h, 10000, 600);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng b = a.split();
  // The child stream must not replay the parent's output.
  Rng a2(9);
  a2.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(9), b(9);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.next(), cb.next());
}

// --------------------------------------------------------------- Pareto

TEST(Pareto, SamplesRespectScaleMinimum) {
  const ParetoDist d(1.9, 3.0);
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.sample(rng), 3.0);
}

TEST(Pareto, WithMeanHitsRequestedMeanFormula) {
  const auto d = ParetoDist::with_mean(1.9, 10.0);
  EXPECT_NEAR(d.mean(), 10.0, 1e-12);
  EXPECT_NEAR(d.xm(), 10.0 * 0.9 / 1.9, 1e-12);
}

TEST(Pareto, TailProbabilityMatchesCdf) {
  // P[X > 2*xm] = 2^-alpha. Tail counts concentrate well even though the
  // variance is infinite.
  const double alpha = 1.9;
  const ParetoDist d(alpha, 1.0);
  Rng rng(17);
  int above = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (d.sample(rng) > 2.0) ++above;
  }
  const double expected = std::pow(2.0, -alpha);
  EXPECT_NEAR(static_cast<double>(above) / kSamples, expected, 0.005);
}

TEST(Pareto, EmpiricalMeanApproachesTheory) {
  // alpha = 3 has finite variance, so the sample mean converges normally.
  const auto d = ParetoDist::with_mean(3.0, 5.0);
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(Pareto, RejectsBadParameters) {
  EXPECT_THROW(ParetoDist(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParetoDist(1.9, 0.0), std::invalid_argument);
  EXPECT_THROW(ParetoDist::with_mean(1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(ParetoDist(0.9, 1.0).mean(), std::invalid_argument);
}

// --------------------------------------------------------- Exponential

TEST(Exponential, EmpiricalMeanMatches) {
  const ExponentialDist d(4.0);
  Rng rng(31);
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.08);
}

TEST(Exponential, MemorylessTail) {
  // P[X > mean] = 1/e.
  const ExponentialDist d(1.0);
  Rng rng(37);
  int above = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (d.sample(rng) > 1.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / kSamples, std::exp(-1.0), 0.01);
}

TEST(Exponential, RejectsNonPositiveMean) {
  EXPECT_THROW(ExponentialDist(0.0), std::invalid_argument);
}

// ------------------------------------------------------------ Discrete

TEST(Discrete, NormalizesWeightsAndComputesMean) {
  const DiscreteDist d({{40.0, 4.0}, {550.0, 5.0}, {1500.0, 1.0}});
  EXPECT_NEAR(d.mean(), 441.0, 1e-9);
}

TEST(Discrete, EmpiricalProportionsMatchWeights) {
  const DiscreteDist d({{1.0, 0.4}, {2.0, 0.5}, {3.0, 0.1}});
  Rng rng(43);
  int c1 = 0, c2 = 0, c3 = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = d.sample(rng);
    if (v == 1.0) ++c1;
    else if (v == 2.0) ++c2;
    else ++c3;
  }
  EXPECT_NEAR(c1 / static_cast<double>(kSamples), 0.4, 0.01);
  EXPECT_NEAR(c2 / static_cast<double>(kSamples), 0.5, 0.01);
  EXPECT_NEAR(c3 / static_cast<double>(kSamples), 0.1, 0.01);
}

TEST(Discrete, SingleOutcomeAlwaysSampled) {
  const DiscreteDist d({{7.0, 1.0}});
  Rng rng(47);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 7.0);
}

TEST(Discrete, RejectsBadWeights) {
  EXPECT_THROW(DiscreteDist({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDist({{1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(DiscreteDist({{1.0, -1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace pds
