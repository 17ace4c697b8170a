// Control plans: declarative, clock-driven reconfiguration scripts.
//
// The paper's Eq. 1/2 claim — delay ratios independent of class loads — is
// tested hardest when the *operator* changes their mind mid-flight. A
// ControlPlan scripts those changes against named targets (links) as a
// line-oriented text format extending the FaultPlan idiom (src/fault/);
// '#' starts a comment:
//
//   seed <n>                                            (optional, default 1)
//   retune <target> at=<t> [w=<v0,v1,...>] [g=<v>]
//   class  <target> at=<t> drain=<idx> | add=<idx>
//   swap   <target> at=<t> sched=<sp|wtp|bpr|additive|pad|hpd|drr>
//   shed   <target> at=<t> for=<dt> watermark=<pkts> [sojourn=<dt>]
//                                                     [classes=<k>]
//
// The seed line, the `<directive> <target> at=<t>` head and the target
// language (`*`, prefix wildcards) are the timed-plan shape shared with
// fault plans (fault/timed_plan.hpp). Times are absolute time units.
//
// `retune` replaces the scheduler's per-class weights (w=, one value per
// class, positive non-decreasing) and/or HPD's blend parameter (g=, in
// (0,1], only valid while the target runs HPD) without touching backlogs.
// `class drain=<idx>` stops admitting arrivals of one class (its queued
// packets serve out; drops counted per link); `class add=<idx>` re-admits
// it. `swap` replaces the scheduler in place, handing the whole backlog —
// class rings and head snapshot — to the replacement; the tag schedulers
// (FCFS/SCFQ/VC) keep per-packet tags that do not travel with a backlog,
// so they can neither give nor take one (is_tag_scheduler in
// sched/factory.hpp). `shed` arms the overload guard (ShedPolicy in
// sched/link.hpp) for the episode's duration.
//
// retune/class/swap are instantaneous (duration 0, applied at `at`); shed
// is the only windowed episode.
//
// Example (a mid-run retune, then a swap under an armed overload guard):
//
//   retune link at=3e4 w=1,3,6,12
//   shed   link at=5e4 for=2e4 watermark=2000 classes=2
//   swap   link at=6e4 sched=bpr
//
// parse_control_plan validates structure; ControlInjector::arm() checks
// targets, class counts and overlaps later. Both name the plan line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/timed_plan.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"

namespace pds {

// In the grammar's directive order.
enum class ControlKind { kRetune, kClass, kSwap, kShed };

// Short lowercase directive name ("retune", "class", "swap", "shed").
std::string to_string(ControlKind kind);

// `duration` is set for kShed only; the others are instantaneous.
struct ControlEpisode : PlanEpisode {
  ControlKind kind = ControlKind::kRetune;
  std::vector<double> weights{};  // kRetune: empty == no w= given
  double g = 0.0;                // kRetune: 0 == no g= given
  ClassId cls = 0;               // kClass
  bool drain = true;             // kClass: drain (true) or add (false)
  SchedulerKind sched = SchedulerKind::kWtp;  // kSwap
  ShedPolicy shed{};                          // kShed
};

struct ControlPlan {
  std::uint64_t seed = 1;
  std::vector<ControlEpisode> episodes;

  bool empty() const noexcept { return episodes.empty(); }
};

// Parses the grammar above. Throws std::invalid_argument ("control plan
// line N: ...") on malformed input; an episode-free plan is legal (no-op).
ControlPlan parse_control_plan(const std::string& text);

}  // namespace pds
