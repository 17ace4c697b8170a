#include "sched/wtp.hpp"

#include "sched/scan.hpp"
#include "util/contracts.hpp"

namespace pds {

double WtpScheduler::head_priority(ClassId cls, SimTime now) const {
  PDS_CHECK(cls < num_classes(), "class index out of range");
  const ClassHead& h = backlog_.head_of(cls);
  if (h.packets == 0) return 0.0;
  const SimTime wait = now - h.arrival;
  PDS_REQUIRE(wait >= 0.0);
  return wait * sdp()[cls];
}

std::uint32_t WtpScheduler::dequeue_burst(SimTime now, Packet* out,
                                          std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  if (backlog_.empty()) return 0;
  // One pass over the head-of-line snapshot (Eq. 11 argmax, ties to the
  // higher class); kernels in sched/scan.cpp.
  const ClassId best = scan::wtp_select(heads_view(), sdp().data(), now);
  return backlog_.pop_burst(best, max_k, out);
}

}  // namespace pds
