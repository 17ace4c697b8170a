#include "sched/strict_priority.hpp"

#include "util/contracts.hpp"

namespace pds {

std::optional<Packet> StrictPriorityScheduler::dequeue(SimTime) {
  const ClassHead* heads = backlog_.heads();
  for (ClassId c = backlog_.num_classes(); c-- > 0;) {
    if (heads[c].packets != 0) return backlog_.pop(c);
  }
  return std::nullopt;
}

}  // namespace pds
