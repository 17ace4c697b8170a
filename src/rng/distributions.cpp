#include "rng/distributions.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace pds {

ParetoDist::ParetoDist(double alpha, double xm) : alpha_(alpha), xm_(xm) {
  PDS_CHECK(alpha > 0.0, "Pareto shape must be positive");
  PDS_CHECK(xm > 0.0, "Pareto scale must be positive");
}

ParetoDist ParetoDist::with_mean(double alpha, double mean) {
  PDS_CHECK(alpha > 1.0, "mean exists only for alpha > 1");
  PDS_CHECK(mean > 0.0, "mean must be positive");
  return ParetoDist(alpha, mean * (alpha - 1.0) / alpha);
}

double ParetoDist::sample(Rng& rng) const {
  // Inversion: X = xm * U^(-1/alpha). uniform01() is in [0,1); use 1-U so
  // the argument is in (0,1] and the sample is finite.
  const double u = 1.0 - rng.uniform01();
  return xm_ * std::pow(u, -1.0 / alpha_);
}

double ParetoDist::mean() const {
  PDS_CHECK(alpha_ > 1.0, "mean is infinite for alpha <= 1");
  return alpha_ * xm_ / (alpha_ - 1.0);
}

ExponentialDist::ExponentialDist(double mean) : mean_(mean) {
  PDS_CHECK(mean > 0.0, "mean must be positive");
}

double ExponentialDist::sample(Rng& rng) const {
  const double u = 1.0 - rng.uniform01();  // in (0,1]
  return -mean_ * std::log(u);
}

DiscreteDist::DiscreteDist(std::vector<Outcome> outcomes)
    : outcomes_(std::move(outcomes)) {
  PDS_CHECK(!outcomes_.empty(), "discrete distribution needs outcomes");
  double total = 0.0;
  for (const auto& o : outcomes_) {
    PDS_CHECK(o.weight > 0.0, "weights must be positive");
    total += o.weight;
  }
  double cum = 0.0;
  cumulative_.reserve(outcomes_.size());
  for (auto& o : outcomes_) {
    o.weight /= total;
    cum += o.weight;
    cumulative_.push_back(cum);
    mean_ += o.value * o.weight;
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

double DiscreteDist::sample(Rng& rng) const {
  const double u = rng.uniform01();
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) return outcomes_[i].value;
  }
  return outcomes_.back().value;
}

}  // namespace pds
