// M/G/1 analytics, and the strongest end-to-end validation we have of the
// simulation substrate: Pollaczek–Khinchine against a simulated FCFS queue
// with Poisson arrivals, which must agree to statistical accuracy.
#include <gtest/gtest.h>

#include <memory>

#include "core/mg1.hpp"
#include "core/model.hpp"
#include "dsim/simulator.hpp"
#include "packet/size_law.hpp"
#include "sched/link.hpp"
#include "sched/tag.hpp"
#include "stats/running_stats.hpp"
#include "traffic/source.hpp"

namespace pds {
namespace {

TEST(ServiceMoments, PaperSizeLawAtStudyACapacity) {
  const auto m = service_moments(paper_size_law(), kStudyACapacity);
  // E[S] is one p-unit by construction.
  EXPECT_NEAR(m.mean, kPUnit, 1e-9);
  // E[S^2] = sum w_i (L_i/R)^2 with L in {40, 550, 1500}.
  const double r = kStudyACapacity;
  const double expected = 0.4 * (40 / r) * (40 / r) +
                          0.5 * (550 / r) * (550 / r) +
                          0.1 * (1500 / r) * (1500 / r);
  EXPECT_NEAR(m.second, expected, 1e-9);
}

TEST(PkWaitingTime, MM1SpecialCase) {
  // Exponential service: E[S^2] = 2/mu^2, so W = rho / (mu - lambda).
  // Approximate an exponential size law by its two moments directly.
  const ServiceMoments m{1.0, 2.0};  // mu = 1
  const double lambda = 0.5;
  EXPECT_NEAR(pk_waiting_time(lambda, m), 0.5 / (1.0 - 0.5), 1e-12);
}

TEST(PkWaitingTime, DeterministicServiceIsHalfOfExponential) {
  const ServiceMoments md{1.0, 1.0};  // D/1: E[S^2] = E[S]^2
  const ServiceMoments me{1.0, 2.0};  // M/1
  const double lambda = 0.8;
  EXPECT_NEAR(pk_waiting_time(lambda, md),
              0.5 * pk_waiting_time(lambda, me), 1e-12);
}

TEST(PkWaitingTime, ZeroRateZeroWait) {
  EXPECT_DOUBLE_EQ(pk_waiting_time(0.0, {1.0, 2.0}), 0.0);
}

TEST(PkWaitingTime, RejectsUnstableQueue) {
  EXPECT_THROW(pk_waiting_time(1.0, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(pk_waiting_time(1.5, {1.0, 2.0}), std::invalid_argument);
}

// The validation test: simulate M/G/1 (Poisson arrivals, paper size law,
// FCFS) and compare the measured mean wait with Pollaczek–Khinchine.
TEST(Mg1Validation, SimulatedFcfsMatchesPollaczekKhinchine) {
  for (const double rho : {0.5, 0.8, 0.9}) {
    const double lambda = rho / kPUnit;  // packets per tu
    Simulator sim;
    PacketIdAllocator ids;
    FcfsScheduler sched(1);
    RunningStats waits;
    const double warmup = 5.0e4;
    Link link(sim, sched, kStudyACapacity,
              [&](Packet&&, SimTime wait, SimTime now) {
                if (now >= warmup) waits.add(wait);
              });
    RenewalSource src(sim, ids, 0, exponential_gaps(1.0 / lambda),
                      law_size(paper_size_law()), Rng(static_cast<std::uint64_t>(rho * 1000)),
                      [&](Packet p) { link.arrive(std::move(p)); });
    src.start(0.0);
    sim.run_until(1.5e6);

    const auto m = service_moments(paper_size_law(), kStudyACapacity);
    const double theory = pk_waiting_time(lambda, m);
    EXPECT_NEAR(waits.mean(), theory, 0.15 * theory)
        << "rho = " << rho << ", theory W = " << theory;
  }
}

TEST(Mg1Feasibility, EqualDdpsFeasibleForPoisson) {
  const std::vector<double> lambda{0.02, 0.02, 0.02, 0.02};
  const auto bad = mg1_infeasible_subsets({1.0, 1.0, 1.0, 1.0}, lambda,
                                          paper_size_law(), kStudyACapacity);
  EXPECT_TRUE(bad.empty());
}

TEST(Mg1Feasibility, PaperDdpsFeasibleAtHeavyPoissonLoad) {
  // rho = 0.95 split 40/30/20/10.
  std::vector<double> lambda;
  for (const double f : {0.4, 0.3, 0.2, 0.1}) {
    lambda.push_back(0.95 * f / kPUnit);
  }
  const auto bad =
      mg1_infeasible_subsets(ddp_from_sdp({1.0, 2.0, 4.0, 8.0}), lambda,
                             paper_size_law(), kStudyACapacity);
  EXPECT_TRUE(bad.empty());
}

TEST(Mg1Feasibility, ExtremeSpacingInfeasible) {
  std::vector<double> lambda;
  for (const double f : {0.4, 0.3, 0.2, 0.1}) {
    lambda.push_back(0.95 * f / kPUnit);
  }
  const auto bad = mg1_infeasible_subsets({1.0, 1e-3, 1e-6, 1e-9}, lambda,
                                          paper_size_law(), kStudyACapacity);
  EXPECT_FALSE(bad.empty());
  // The top class alone must be among the violated subsets: it cannot beat
  // its solo M/G/1 wait.
  bool top_alone = false;
  for (const auto mask : bad) {
    if (mask == (1u << 3)) top_alone = true;
  }
  EXPECT_TRUE(top_alone);
}

TEST(Mg1Feasibility, PoissonFeasibilityIsNearlyLoadInvariant) {
  // Under Pollaczek–Khinchine both the targets and the subset floors scale
  // like lambda/(1 - rho), so the paper's 8:1 spread stays feasible from
  // light to heavy Poisson load — what breaks feasibility is the *spacing*,
  // not the load level (contrast with finite bursty traces).
  for (const double rho : {0.3, 0.6, 0.9}) {
    std::vector<double> lambda;
    for (const double f : {0.4, 0.3, 0.2, 0.1}) {
      lambda.push_back(rho * f / kPUnit);
    }
    const auto bad =
        mg1_infeasible_subsets(ddp_from_sdp({1.0, 2.0, 4.0, 8.0}), lambda,
                               paper_size_law(), kStudyACapacity);
    EXPECT_TRUE(bad.empty()) << "rho = " << rho;
  }
}

TEST(Mg1Feasibility, SpacingHasAFeasibilityThreshold) {
  // At rho = 0.95 a per-class spacing of 4 is schedulable but a spacing of
  // 10 demands more than the top class's solo-M/G/1 floor allows.
  std::vector<double> lambda;
  for (const double f : {0.4, 0.3, 0.2, 0.1}) {
    lambda.push_back(0.95 * f / kPUnit);
  }
  const auto make_ddp = [](double a) {
    return std::vector<double>{1.0, 1.0 / a, 1.0 / (a * a),
                               1.0 / (a * a * a)};
  };
  EXPECT_TRUE(mg1_infeasible_subsets(make_ddp(4.0), lambda, paper_size_law(),
                                     kStudyACapacity)
                  .empty());
  EXPECT_FALSE(mg1_infeasible_subsets(make_ddp(10.0), lambda,
                                      paper_size_law(), kStudyACapacity)
                   .empty());
}

}  // namespace
}  // namespace pds
