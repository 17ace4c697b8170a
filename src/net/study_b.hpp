// Study B harness (Section 6): the user's perspective on end-to-end
// differentiation.
//
// A K-hop chain (Figure 6) carries, at every hop, C cross-traffic sources
// (500 B packets, Pareto(1.9) interarrivals, classes drawn 40/30/20/10)
// whose rate is calibrated so each link runs at utilization rho. Every
// `experiment_interval` seconds one "user experiment" launches N identical
// periodic flows — one per class, F packets of 500 B at average rate R_u —
// through the whole path. For each flow the ten end-to-end queueing-delay
// percentiles (10%..90%, 99%) are computed; an experiment is *inconsistent*
// if any percentile of a higher-class flow exceeds the same percentile of a
// lower-class flow. The scalar R_D averages the percentile ratios of
// successive classes over all experiments — Table 1's figure of merit
// (ideal value: the common SDP ratio, 2.0 for s = 1,2,4,8).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/factory.hpp"

namespace pds {

struct StudyBConfig {
  std::uint32_t hops = 4;                    // K
  double link_bandwidth_bps = 25e6;          // Figure 6 links
  std::uint32_t cross_sources_per_hop = 8;   // C
  std::vector<double> cross_mix{0.4, 0.3, 0.2, 0.1};
  double utilization = 0.85;                 // rho per link
  double pareto_alpha = 1.9;

  std::uint32_t flow_packets = 10;           // F
  double flow_rate_kbps = 50.0;              // R_u
  std::uint32_t packet_bytes = 500;

  std::uint32_t user_experiments = 30;       // M (paper: 100)
  double experiment_interval_s = 1.0;
  double warmup_s = 20.0;                    // paper: 100

  SchedulerKind scheduler = SchedulerKind::kWtp;
  std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};
  std::uint64_t seed = 1;

  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(sdp.size());
  }
  void validate() const;
};

struct StudyBResult {
  double rd = 0.0;                        // Table 1 metric
  std::uint64_t experiments = 0;
  std::uint64_t inconsistent_experiments = 0;
  std::uint64_t inconsistent_pairs = 0;   // (experiment, class pair) events
  double worst_violation_s = 0.0;         // largest higher-beats-lower gap
  std::uint64_t skipped_ratio_terms = 0;  // near-zero denominators
  std::vector<double> mean_e2e_delay_per_class;  // seconds
  std::vector<double> mean_utilization_per_hop;

  // Per-hop, per-class mean queueing delay (seconds; that hop's cross
  // traffic, post-warmup) and the per-hop R_D of successive-class means —
  // showing how the per-hop deviations "cancel out" into the end-to-end
  // figure.
  std::vector<std::vector<double>> per_hop_class_delay;  // [hop][class]
  std::vector<double> per_hop_rd;                        // [hop]
};

StudyBResult run_study_b(const StudyBConfig& config);

// The ten end-to-end delay percentiles the paper compares: 10%..90%, 99%.
const std::vector<double>& study_b_percentiles();

}  // namespace pds
