// Backlog-Proportional Rate (BPR) scheduler — Section 4.1 + Appendix 3.
//
// Fluid model: a GPS-like server whose instantaneous class service rates are
// ratioed by SDP-weighted backlogs,
//
//     r_i(t) / r_j(t) = (s_i q_i(t)) / (s_j q_j(t))           (Eq. 8)
//     sum_i r_i(t) = R (work conservation)                    (Eq. 9)
//
// so a class that has recently been under-served (large backlog) dynamically
// receives a larger rate share. Proposition 1: all queues backlogged in a
// busy period empty simultaneously (see BprFluidServer for the exact fluid
// reference).
//
// This class is the *packetized* approximation of Appendix 3. It maintains a
// virtual service function v_i approximating the service the head of queue i
// would have received from the fluid server since it reached the head:
//
//   at each departure instant t^k, for each backlogged queue i:
//       v_i = 0                          if the head arrived after t^{k-1}
//       v_i += r_i(t^{k-1}) (t^k - t^{k-1})   otherwise
//   transmit from queue  j = argmin_{i in B} [ L_i - v_i ]    (Eq. 21)
//   (ties broken in favour of the higher class), then recompute all rates
//   from Eq. 8/9 using the post-departure byte backlogs.
//
// Deviation from the paper's recurrence, documented in DESIGN.md: Appendix 3
// does not state that v_j resets when queue j itself is served; we reset
// v_j to 0 after serving j, since the accumulated virtual service belonged
// to the departed head and the new head has received none yet.
#pragma once

#include "sched/scheduler.hpp"

namespace pds {

class BprScheduler final : public ClassBasedScheduler {
 public:
  // Requires config.link_capacity > 0 (bytes per time unit).
  explicit BprScheduler(const SchedulerConfig& config);

  std::uint32_t dequeue_burst(SimTime now, Packet* out,
                              std::uint32_t max_k) override;

  std::string_view name() const noexcept override { return "BPR"; }

  // Live retune: Eq. 8 rates are refreshed immediately from the new SDPs
  // over the current (untouched) byte backlogs.
  void set_weights(const std::vector<double>& sdp) override;

  // Current rate assigned to a class (bytes per time unit) as of the last
  // departure; exposed for tests.
  double rate(ClassId cls) const;

 protected:
  // Live swap-in: the adopted heads carry no fluid-service history, so the
  // virtual service restarts from zero and rates are recomputed from the
  // adopted backlogs (deterministic, documented in docs/control_plane.md).
  void on_backlog_adopted(SimTime now) override;

 private:
  void recompute_rates();

  std::vector<double> rates_;            // r_i(t^{k-1})
  std::vector<double> virtual_service_;  // v_i, in bytes
  SimTime last_departure_ = kTimeZero;
  bool any_departure_yet_ = false;
};

}  // namespace pds
