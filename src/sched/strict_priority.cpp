#include "sched/strict_priority.hpp"

#include "util/contracts.hpp"

namespace pds {

std::uint32_t StrictPriorityScheduler::dequeue_burst(SimTime, Packet* out,
                                                     std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  const ClassHead* heads = backlog_.heads();
  std::uint32_t k = 0;
  for (ClassId c = backlog_.num_classes(); c-- > 0 && k < max_k;) {
    if (heads[c].packets != 0) k += backlog_.pop_burst(c, max_k - k, out + k);
  }
  return k;
}

}  // namespace pds
