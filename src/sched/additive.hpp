// Additive head-start priority scheduler — Section 2.1, "Additive
// Differentiation".
//
// Priority of the head of queue i at time t: p_i(t) = w_i(t) + s_i, i.e.
// each class gets a constant head start s_i on top of its waiting time. In
// heavy load this tends to *additive* delay differentiation,
//
//     d_i - d_j = s_j - s_i   (class j higher, served s_j - s_i "earlier"),
//
// the paper's Eq. 3 with D_ij = s_i - s_j for i < j. Included as the
// contrast model for the ablation bench (additive vs proportional spacing).
#pragma once

#include "sched/scheduler.hpp"

namespace pds {

class AdditiveWtpScheduler final : public ClassBasedScheduler {
 public:
  explicit AdditiveWtpScheduler(const SchedulerConfig& config)
      : ClassBasedScheduler(config) {}

  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "ADD"; }
};

}  // namespace pds
