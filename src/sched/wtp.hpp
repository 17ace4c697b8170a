// Waiting-Time Priority (WTP) scheduler — Section 4.2.
//
// Kleinrock's Time-Dependent Priorities (1964): the priority of the packet
// at the head of queue i at time t is
//
//     p_i(t) = w_i(t) * s_i                                   (Eq. 11)
//
// where w_i(t) is the packet's waiting time so far and s_i is the class's
// Scheduler Differentiation Parameter. The backlogged class with the highest
// head-of-line priority is served; ties are broken in favour of the higher
// class. In heavy load the achieved average-delay ratios tend to the inverse
// SDP ratios, d_i/d_j -> s_j/s_i (Eq. 10/13), which is the proportional
// delay differentiation model.
//
// Proposition 2 (short-term starvation): if the peak input rate R1 exceeds
// the link rate R and s_i/s_j < 1 - R/R1 (s_i < s_j), an arbitrarily long
// burst of class-j packets arriving back-to-back from time t0 is fully
// served before any class-i packet that arrived at or after t0.
//
// Complexity: O(N) per dequeue (one priority evaluation per class).
#pragma once

#include "sched/scheduler.hpp"

namespace pds {

class WtpScheduler final : public ClassBasedScheduler {
 public:
  explicit WtpScheduler(const SchedulerConfig& config)
      : ClassBasedScheduler(config) {}

  std::uint32_t dequeue_burst(SimTime now, Packet* out,
                              std::uint32_t max_k) override;

  std::string_view name() const noexcept override { return "WTP"; }

  // Head-of-line priority of class `cls` at `now`; 0 if not backlogged.
  // Exposed for tests and for the voip example's introspection.
  double head_priority(ClassId cls, SimTime now) const;
};

}  // namespace pds
