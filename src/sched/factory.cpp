#include "sched/factory.hpp"

#include "sched/additive.hpp"
#include "sched/bpr.hpp"
#include "sched/drr.hpp"
#include "sched/pad.hpp"
#include "sched/strict_priority.hpp"
#include "sched/tag.hpp"
#include "sched/wtp.hpp"
#include "util/contracts.hpp"

namespace pds {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return "fcfs";
    case SchedulerKind::kStrictPriority:
      return "sp";
    case SchedulerKind::kWtp:
      return "wtp";
    case SchedulerKind::kBpr:
      return "bpr";
    case SchedulerKind::kAdditiveWtp:
      return "additive";
    case SchedulerKind::kPad:
      return "pad";
    case SchedulerKind::kHpd:
      return "hpd";
    case SchedulerKind::kDrr:
      return "drr";
    case SchedulerKind::kScfq:
      return "scfq";
    case SchedulerKind::kVirtualClock:
      return "vc";
  }
  PDS_REQUIRE(false);
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  for (const auto kind :
       {SchedulerKind::kFcfs, SchedulerKind::kStrictPriority,
        SchedulerKind::kWtp, SchedulerKind::kBpr, SchedulerKind::kAdditiveWtp,
        SchedulerKind::kPad, SchedulerKind::kHpd, SchedulerKind::kDrr,
        SchedulerKind::kScfq, SchedulerKind::kVirtualClock}) {
    if (to_string(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::unique_ptr<ClassBasedScheduler> make_scheduler(
    SchedulerKind kind, const SchedulerConfig& config) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>(config.num_classes());
    case SchedulerKind::kStrictPriority:
      return std::make_unique<StrictPriorityScheduler>(config);
    case SchedulerKind::kWtp:
      return std::make_unique<WtpScheduler>(config);
    case SchedulerKind::kBpr:
      return std::make_unique<BprScheduler>(config);
    case SchedulerKind::kAdditiveWtp:
      return std::make_unique<AdditiveWtpScheduler>(config);
    case SchedulerKind::kPad:
      return std::make_unique<PadScheduler>(config);
    case SchedulerKind::kHpd:
      return std::make_unique<HpdScheduler>(config);
    case SchedulerKind::kDrr:
      return std::make_unique<DrrScheduler>(config);
    case SchedulerKind::kScfq:
      return std::make_unique<ScfqScheduler>(config);
    case SchedulerKind::kVirtualClock:
      return std::make_unique<VirtualClockScheduler>(config);
  }
  PDS_REQUIRE(false);
}

bool has_weights(SchedulerKind kind) { return kind != SchedulerKind::kFcfs; }

bool can_swap_backlog(SchedulerKind kind) {
  return kind != SchedulerKind::kFcfs && kind != SchedulerKind::kScfq &&
         kind != SchedulerKind::kVirtualClock;
}

}  // namespace pds
