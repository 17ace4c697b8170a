// Random-variate distributions used by the traffic models.
//
// The paper's workloads use Pareto-distributed interarrival times with shape
// alpha = 1.9 (finite mean, infinite variance — the source of burstiness over
// many timescales) and a three-point empirical packet-size law. All
// distributions are small value types that sample from a caller-supplied Rng.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace pds {

// Pareto distribution with shape `alpha` and scale (minimum) `xm`:
//   P[X > x] = (xm / x)^alpha  for x >= xm.
// Mean is alpha*xm/(alpha-1) for alpha > 1; variance is infinite for
// alpha <= 2, which matches the paper's choice alpha = 1.9.
class ParetoDist {
 public:
  ParetoDist(double alpha, double xm);

  // Constructs a Pareto with the given shape whose mean equals `mean`.
  // Requires alpha > 1 so the mean exists.
  static ParetoDist with_mean(double alpha, double mean);

  double sample(Rng& rng) const;

  double alpha() const noexcept { return alpha_; }
  double xm() const noexcept { return xm_; }
  double mean() const;  // throws if alpha <= 1

 private:
  double alpha_;
  double xm_;
};

// Exponential distribution with the given mean (Poisson interarrivals).
class ExponentialDist {
 public:
  explicit ExponentialDist(double mean);

  double sample(Rng& rng) const;
  double mean() const noexcept { return mean_; }

 private:
  double mean_;
};

// Finite discrete distribution over arbitrary double outcomes, specified as
// (value, weight) pairs; weights are normalized internally. Sampling is
// O(number of outcomes) which is fine for the paper's 3-point size law.
class DiscreteDist {
 public:
  struct Outcome {
    double value;
    double weight;
  };

  explicit DiscreteDist(std::vector<Outcome> outcomes);

  double sample(Rng& rng) const;
  double mean() const noexcept { return mean_; }
  const std::vector<Outcome>& outcomes() const noexcept { return outcomes_; }

 private:
  std::vector<Outcome> outcomes_;  // weights normalized, cumulative_ aligned
  std::vector<double> cumulative_;
  double mean_ = 0.0;
};

}  // namespace pds
