// Proportional Average Delay (PAD) and Hybrid Proportional Delay (HPD)
// schedulers — extensions beyond the SIGCOMM'99 paper.
//
// The paper leaves open whether a work-conserving scheduler exists that
// meets the proportional constraints whenever they are feasible (Sec. 5,
// Sec. 7). The authors' follow-on work (Dovrolis, Stiliadis, Ramanathan,
// "Proportional Differentiated Services, Part II" / IEEE ToN 10(1), 2002)
// proposes:
//
//  * PAD: serve the backlogged class with the maximum *normalized average
//    delay*. PAD matches the long-term proportional constraints even in
//    moderate load but has poor short-timescale behaviour.
//  * HPD: priority = g * (normalized head waiting time) +
//                    (1-g) * (normalized average delay),
//    blending WTP's short-timescale accuracy with PAD's long-term accuracy.
//
// Normalization uses 1/delta_i = s_i (our SDP convention): normalized delay
// of class i is (delay * s_i).
//
// Implementation note: the running average of class i includes all packets
// of class i served so far *plus* the current head's prospective delay if it
// were served now — this keeps the metric defined before the first
// departure and responsive to a waiting head.
//
// Each decision serves the backlogged class with the largest priority,
// ties to the higher class (ClassBasedScheduler::select_class).
#pragma once

#include "sched/scheduler.hpp"

namespace pds {

class PadScheduler : public ClassBasedScheduler {
 public:
  explicit PadScheduler(const SchedulerConfig& config);

  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "PAD"; }

  // Normalized average delay of class `cls` assuming its head were served
  // at `now`; 0 when the class has neither history nor backlog.
  double normalized_average_delay(ClassId cls, SimTime now) const;

 protected:
  // Winning class of one priority decision; requires a non-empty backlog.
  // PAD argmaxes the normalized average delay; HPD overrides with the
  // hybrid blend.
  virtual ClassId select(SimTime now) const;

  // PAD's priority of a backlogged class whose head has waited `wait`: the
  // normalized average delay of its `served` packets (summed delay `cum`)
  // counting the head as served now.
  static double pad_priority(double cum, std::uint64_t served, SimTime wait,
                             double s) {
    return ((cum + wait) / (static_cast<double>(served) + 1.0)) * s;
  }

  // Key inputs, shared with the HPD override.
  const double* cum_delay() const noexcept { return cum_delay_.data(); }
  const std::uint64_t* served() const noexcept { return served_.data(); }

 private:
  std::vector<double> cum_delay_;      // sum of delays of served packets
  std::vector<std::uint64_t> served_;  // number of served packets
};

class HpdScheduler final : public PadScheduler {
 public:
  explicit HpdScheduler(const SchedulerConfig& config);

  std::string_view name() const noexcept override { return "HPD"; }

  // Live retune of the WTP/PAD blend (ctrl/): takes effect on the next
  // priority decision, backlogs and delay history untouched.
  void set_g(double g) {
    PDS_CHECK(g > 0.0 && g <= 1.0, "hpd g must be in (0,1]");
    g_ = g;
  }
  double g() const noexcept { return g_; }

 protected:
  ClassId select(SimTime now) const override;

 private:
  double g_;
};

}  // namespace pds
