// Study C harness — coupled delay and loss differentiation (extension).
//
// The paper defers loss-rate differentiation to future work (Sections 1, 7)
// and notes that its Section 3 lossless model needs "an adequately large
// number of packet buffers". Study C drops that assumption: a finite-buffer
// link is driven at an offered load that may exceed capacity, a drop policy
// sheds the excess, and both the per-class *loss rates* (vs the LDP
// targets) and the per-class *queueing delays of survivors* (vs the DDP
// targets implied by the SDPs) are measured. This is the experiment behind
// the ext_loss_differentiation bench and the coupled-differentiation tests.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/size_law.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"

namespace pds {

struct StudyCConfig {
  SchedulerKind scheduler = SchedulerKind::kWtp;
  std::vector<double> sdp{1.0, 2.0, 4.0, 8.0};

  // Loss Differentiation Parameters, non-increasing (higher class = less
  // loss); used only when policy == kPlr.
  std::vector<double> ldp{8.0, 4.0, 2.0, 1.0};

  std::vector<double> load_fractions{0.25, 0.25, 0.25, 0.25};

  // Offered load relative to capacity; values > 1 force sustained loss.
  double offered_load = 1.3;

  // kPlr pushes queued packets out, so it rejects the tag schedulers
  // (is_tag_scheduler in sched/factory.hpp).
  DropPolicy policy = DropPolicy::kPlr;
  std::uint64_t plr_window = 0;        // 0 = PLR(inf)
  std::uint64_t buffer_packets = 200;

  double capacity = kStudyACapacity;
  std::uint32_t packet_bytes = 441;    // fixed size keeps loss rates clean
  double pareto_alpha = 1.9;
  double sim_time = 2.0e5;
  double warmup_fraction = 0.1;
  std::uint64_t seed = 1;

  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(sdp.size());
  }
  void validate() const;
};

struct StudyCResult {
  std::vector<double> loss_rates;          // drops / arrivals per class
  std::vector<double> loss_ratios;         // l_i / l_{i+1}
  std::vector<double> mean_delays;         // survivors only (time units)
  std::vector<double> delay_ratios;        // d_i / d_{i+1}
  std::uint64_t total_arrivals = 0;
  std::uint64_t total_drops = 0;
  double aggregate_loss_rate = 0.0;
  double measured_utilization = 0.0;
};

StudyCResult run_study_c(const StudyCConfig& config);

}  // namespace pds
