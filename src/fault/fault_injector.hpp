// FaultInjector: drives a FaultPlan against live links, clock-driven.
//
// Usage:
//   FaultInjector inj(sim, parse_fault_plan(text));
//   inj.attach("backbone", link);       // down/degrade/stall; loss too
//                                       // when the link has a buffer
//   inj.arm();                          // validate + schedule episodes
//   sim.run_until(t_end);
//
// The timed-plan engine (fault/timed_plan.hpp) expands targets, enforces
// the overlap rule and schedules the "fault.begin"/"fault.end" boundaries.
// The injector keeps the fault appliers and one check: loss episodes must
// target a buffered link (Link::set_buffer). Every arm() error names its
// plan line. Loss-burst randomness comes from an Rng seeded by (plan seed,
// instance index), so a faulted run replays byte for byte
// (docs/robustness.md).
//
// The injector must outlive the simulation run (scheduled events capture
// its engine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "fault/fault_plan.hpp"
#include "sched/link.hpp"

namespace pds {

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Registers a target before arm(). Names must be unique; the link must
  // outlive the injector's run.
  void attach(const std::string& name, Link& link);

  // Validates the plan against the attached targets and schedules every
  // episode boundary. Call exactly once, before running the simulator, at a
  // simulation time no later than the earliest episode. Throws
  // std::invalid_argument on unknown targets, loss episodes aimed at links
  // without a buffer, or same-kind overlapping episodes on one target.
  void arm();

  // Episode instances after wildcard expansion (0 until arm()).
  std::size_t scheduled_episodes() const noexcept {
    return engine_.instances().size();
  }
  std::uint64_t episodes_begun() const noexcept { return engine_.begun(); }
  std::uint64_t episodes_completed() const noexcept {
    return engine_.completed();
  }
  bool any_active() const noexcept {
    return engine_.begun() > engine_.completed();
  }

  // Spans of completed episodes on the fault track (TimedPlan).
  void set_span_buffer(SpanBuffer* buffer, double us_per_time_unit = 1.0) {
    engine_.set_span_buffer(buffer, us_per_time_unit);
  }

  // "<kind> <target>" of the active episodes, "+"-joined.
  std::string active_summary() const { return engine_.active_summary(); }

 private:
  void begin(std::size_t instance);
  void end(std::size_t instance);

  FaultPlan plan_;
  TimedPlan engine_;
  std::vector<Link*> targets_;  // attach order, as the engine's
};

}  // namespace pds
