// ControlInjector: drives a ControlPlan against live links, clock-driven —
// the deterministic stand-in for an xds-style control channel.
//
// Usage:
//   ControlInjector inj(sim, parse_control_plan(text));
//   inj.attach("link", link, SchedulerKind::kWtp, sched_config);
//   inj.arm();                      // validate + schedule episodes
//   sim.run_until(t_end);
//
// attach() names a Link together with the kind and config of the scheduler
// currently serving it (the template swap replacements are built from). The
// timed-plan engine (fault/timed_plan.hpp) expands targets, enforces the
// overlap rule and schedules the "ctrl.apply" (instantaneous) and
// "ctrl.begin"/"ctrl.end" (shed window) boundaries. The injector keeps the
// per-kind appliers, the ctrl.* metrics, and the check of every episode
// against its target's scheduler *timeline*: a `retune g=` must land while
// the target runs HPD, a `retune w=` needs a scheduler with weights and a
// swap one that can hand over its backlog (sched/factory.hpp), tracking
// kind changes through earlier swaps. Swap replacements are built at
// arm(). Every arm() error names its plan line, and every boundary is a
// plan-scripted simulator event (docs/control_plane.md), so controlled
// runs replay byte for byte.
//
// The injector must outlive the simulation run (scheduled events capture
// its engine, and swapped-in schedulers are owned here).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/control_plan.hpp"
#include "dsim/simulator.hpp"
#include "sched/link.hpp"

namespace pds {

class MetricsRegistry;

class ControlInjector {
 public:
  ControlInjector(Simulator& sim, ControlPlan plan);

  ControlInjector(const ControlInjector&) = delete;
  ControlInjector& operator=(const ControlInjector&) = delete;

  // Registers a target before arm(). Names must be unique; the link (and
  // the scheduler currently serving it) must outlive the injector's run.
  // `kind`/`config` describe that scheduler; swap replacements are built
  // from `config` with only the kind (and any retuned weights) changed.
  void attach(const std::string& name, Link& link, SchedulerKind kind,
              const SchedulerConfig& config);

  // Validates the plan against the attached targets and schedules every
  // episode. Call exactly once, before running the simulator, at a
  // simulation time no later than the earliest episode. Throws
  // std::invalid_argument on unknown targets, unmatched patterns, class
  // indices out of range, retune/swap aimed at schedulers that cannot take
  // them, or same-kind overlapping episodes on one target.
  void arm();

  // Episode instances after wildcard expansion (0 until arm()).
  std::size_t scheduled_episodes() const noexcept {
    return engine_.instances().size();
  }
  std::uint64_t episodes_applied() const noexcept { return engine_.begun(); }
  std::uint64_t episodes_completed() const noexcept {
    return engine_.completed();
  }

  // Per-kind application counts (instances, post-expansion).
  std::uint64_t retunes_applied() const noexcept { return retunes_; }
  std::uint64_t swaps_applied() const noexcept { return swaps_; }
  std::uint64_t class_changes_applied() const noexcept {
    return class_changes_;
  }
  std::uint64_t sheds_applied() const noexcept { return sheds_; }

  // Spans of completed episodes on the control track (TimedPlan); an
  // instantaneous episode's span has zero duration.
  void set_span_buffer(SpanBuffer* buffer, double us_per_time_unit = 1.0) {
    engine_.set_span_buffer(buffer, us_per_time_unit);
  }

  // Optional metrics: counters `ctrl.episodes` (applied instances),
  // `ctrl.shed.drops`, `ctrl.drain.drops`, and per-class
  // `ctrl.shed.c<idx>` as sheds happen.
  void bind_metrics(MetricsRegistry& registry);

  // The open shed windows ("shed link"), as FaultInjector::active_summary.
  std::string active_summary() const { return engine_.active_summary(); }

 private:
  struct Target {
    Link* link = nullptr;
    SchedulerKind kind = SchedulerKind::kWtp;  // at attach, before any swap
    SchedulerConfig config;                    // swap-replacement template
  };

  void validate_timeline(std::size_t target);
  void apply(std::size_t instance);  // instantaneous episodes + shed begin
  void end_shed(std::size_t instance);
  void note_control_drop(const Packet& p, ControlDropKind kind);

  Simulator& sim_;
  ControlPlan plan_;
  TimedPlan engine_;
  std::vector<Target> targets_;  // attach order, as the engine's
  // Per instance: the swap replacement, built at arm(), installed at apply.
  std::vector<std::unique_ptr<ClassBasedScheduler>> replacements_;
  std::uint64_t retunes_ = 0;
  std::uint64_t swaps_ = 0;
  std::uint64_t class_changes_ = 0;
  std::uint64_t sheds_ = 0;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pds
