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

  // Serves the highest backlogged class.
  std::optional<Packet> dequeue(SimTime now) override;

  std::string_view name() const noexcept override { return "SP"; }
};

}  // namespace pds
