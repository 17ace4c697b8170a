// Strict (static) priority scheduler — Section 2.1's first "other relative
// differentiation model". The highest backlogged class is always served
// first. Differentiation is consistent but not controllable: there is no
// knob for the quality spacing, and lower classes can starve.
#pragma once

#include "sched/scheduler.hpp"

namespace pds {

class StrictPriorityScheduler final : public ClassBasedScheduler {
 public:
  explicit StrictPriorityScheduler(const SchedulerConfig& config)
      : ClassBasedScheduler(config) {}

  // A burst of k is k decisions: classes drain from the top down.
  std::uint32_t dequeue_burst(SimTime now, Packet* out,
                              std::uint32_t max_k) override;

  std::string_view name() const noexcept override { return "SP"; }
};

}  // namespace pds
