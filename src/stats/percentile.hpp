// Percentile computation over retained samples.
//
// Study B flows are short (10-100 packets) and Figure 3 retains one R_D
// value per monitoring interval, so exact percentiles over stored samples
// are affordable and avoid estimator bias in the tails the paper reports
// (5% / 95%, and the per-flow 99th percentile).
#pragma once

#include <vector>

namespace pds {

// Percentile with linear interpolation between closest ranks (the same
// convention as numpy's default). `p` in [0, 100]. Throws on empty input.
// Selects the two ranks it needs (std::nth_element) instead of sorting;
// the values equal those of a full sort bit for bit.
double percentile(std::vector<double> samples, double p);

// Multiple percentiles of one sample set; `ps` in [0, 100]. Ascending `ps`
// select each rank on the part of the set above the previous one.
std::vector<double> percentiles(std::vector<double> samples,
                                const std::vector<double>& ps);

// Sample accumulator with convenience accessors.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  const std::vector<double>& samples() const noexcept { return samples_; }

  double percentile(double p) const;
  std::vector<double> percentiles(const std::vector<double>& ps) const;
  double mean() const;

 private:
  std::vector<double> samples_;
};

}  // namespace pds
