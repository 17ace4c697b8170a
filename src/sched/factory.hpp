// Scheduler factory: builds any scheduler in the library by kind, used by
// the Study A/B harnesses and the benches to sweep scheduler choices, and
// the two rules that tell the kinds apart for live reconfiguration.
#pragma once

#include <memory>
#include <string>

#include "sched/scheduler.hpp"

namespace pds {

enum class SchedulerKind {
  kFcfs,            // classless baseline / conservation-law reference
  kStrictPriority,  // Sec. 2.1 strict prioritization
  kWtp,             // Sec. 4.2 Waiting-Time Priority
  kBpr,             // Sec. 4.1 Backlog-Proportional Rate (packetized)
  kAdditiveWtp,     // Sec. 2.1 additive differentiation
  kPad,             // extension: Proportional Average Delay
  kHpd,             // extension: Hybrid Proportional Delay
  kDrr,             // capacity-differentiation baseline (Deficit RR)
  kScfq,            // capacity-differentiation baseline (WFQ family)
  kVirtualClock,    // capacity-differentiation baseline (rate reservation)
};

// Short lowercase name ("wtp", "bpr", ...) used on bench command lines.
std::string to_string(SchedulerKind kind);

// Parses the names accepted by to_string; throws std::invalid_argument on
// unknown names.
SchedulerKind scheduler_kind_from_string(const std::string& name);

std::unique_ptr<ClassBasedScheduler> make_scheduler(
    SchedulerKind kind, const SchedulerConfig& config);

// Whether the kind has per-class weights to retune (FCFS has none).
bool has_weights(SchedulerKind kind);

// Whether the kind is a tag scheduler (FCFS, SCFQ, VC; sched/tag.hpp). Its
// per-packet tags live beside the backlog, so it can neither hand its
// backlog to a live swap nor adopt one, and it cannot push a queued packet
// out (drop_tail returns nullopt), which PLR push-out needs.
bool is_tag_scheduler(SchedulerKind kind);

}  // namespace pds
