// Fault plans: declarative, clock-driven failure scripts.
//
// The paper's Eq. 1/2 claim — delay ratios independent of class loads — is
// only interesting if it survives the transients a real router sees. A
// FaultPlan scripts those transients against named targets (links / hops)
// as a line-oriented text format; '#' starts a comment:
//
//   seed <n>                                      (optional, default 1)
//   down    <target> at=<t> for=<dt> [mode=drop|hold]
//   degrade <target> at=<t> for=<dt> factor=<f>
//   stall   <target> at=<t> for=<dt>
//   loss    <target> at=<t> for=<dt> rate=<p>
//
// `target` is the name a Link was attached under (see
// fault_injector.hpp), `*`, or a prefix wildcard (`pod0*`) — the target
// language of timed plans (fault/timed_plan.hpp), which topology-aware plans
// use to fail whole pods/tiers by naming convention. Times are absolute
// simulation time units; `for` is the episode duration. `down` takes the
// link out of service: `mode=drop` (default) discards arrivals during the
// outage, `mode=hold` queues them and releases the backlog on recovery.
// `degrade` scales the effective service rate by `factor` in (0, 1).
// `stall` pauses the scheduler (arrivals queue, nothing transmits).
// `loss` drops each arrival at a buffered link (Link::set_buffer; the
// scenario's `buffer=`) with probability `rate` in (0, 1], using an Rng
// derived deterministically from the plan seed and the episode index —
// faults never perturb byte-identical replay.
//
// Example (a flap plus a brown-out):
//
//   seed 7
//   down backbone at=1e4 for=2e3 mode=hold
//   degrade * at=2e4 for=5e3 factor=0.5
//
// parse_fault_plan validates structure; FaultInjector::arm() checks
// targets and overlaps later. Both name the plan line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/timed_plan.hpp"
#include "sched/link.hpp"

namespace pds {

// In the grammar's directive order.
enum class FaultKind { kDown, kDegrade, kStall, kLoss };

// Short lowercase directive name ("down", "degrade", ...).
std::string to_string(FaultKind kind);

struct FaultEpisode : PlanEpisode {
  FaultKind kind = FaultKind::kDown;
  OutageMode mode = OutageMode::kDropArrivals;  // kDown only
  double factor = 1.0;                          // kDegrade only
  double rate = 0.0;                            // kLoss only
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultEpisode> episodes;

  bool empty() const noexcept { return episodes.empty(); }
};

// Parses the grammar above. Throws std::invalid_argument ("fault plan line
// N: ...") on malformed input; an episode-free plan is legal (no-op).
FaultPlan parse_fault_plan(const std::string& text);

}  // namespace pds
