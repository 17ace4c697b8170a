#include "stats/percentile.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace pds {

namespace {

// The p-th percentile of `v[first, end)`, whose first `first` elements
// are no larger than any of the rest: nth_element places the floor rank,
// and the ceiling rank, when it differs, is the least element above it.
// Leaves the floor rank's element in place, so a later call with a larger
// `p` may pass the floor rank as its `first`. Returns the value and sets
// `floor_rank`.
double select_percentile(std::vector<double>& v, std::size_t first, double p,
                         std::size_t& floor_rank) {
  PDS_CHECK(!v.empty(), "percentile of empty sample");
  PDS_CHECK(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (v.size() == 1) {
    floor_rank = 0;
    return v.front();
  }
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(first), nth,
                   v.end());
  const double at_lo = *nth;
  const double at_hi = hi == lo ? at_lo : *std::min_element(nth + 1, v.end());
  floor_rank = lo;
  // The interpolation a fully sorted copy would give, value for value.
  return at_lo + (at_hi - at_lo) * frac;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  std::size_t floor_rank = 0;
  return select_percentile(samples, 0, p, floor_rank);
}

std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double>& ps) {
  std::vector<double> out;
  out.reserve(ps.size());
  // Ascending ps select on the shrinking tail above the last floor rank;
  // a smaller p starts again from the whole set.
  std::size_t first = 0;
  double last_p = 0.0;
  for (const double p : ps) {
    if (p < last_p) first = 0;
    std::size_t floor_rank = 0;
    out.push_back(select_percentile(samples, first, p, floor_rank));
    first = floor_rank;
    last_p = p;
  }
  return out;
}

double SampleSet::percentile(double p) const {
  return ::pds::percentile(samples_, p);
}

std::vector<double> SampleSet::percentiles(
    const std::vector<double>& ps) const {
  return ::pds::percentiles(samples_, ps);
}

double SampleSet::mean() const {
  PDS_CHECK(!samples_.empty(), "mean of empty sample");
  double s = 0.0;
  for (const double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

}  // namespace pds
