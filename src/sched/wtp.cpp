#include "sched/wtp.hpp"

#include "util/contracts.hpp"

namespace pds {

double WtpScheduler::head_priority(ClassId cls, SimTime now) const {
  PDS_CHECK(cls < num_classes(), "class index out of range");
  const ClassHead& h = backlog_.head_of(cls);
  return h.packets == 0 ? 0.0 : wtp_priority(now - h.arrival, sdp()[cls]);
}

std::optional<Packet> WtpScheduler::dequeue(SimTime now) {
  if (backlog_.empty()) return std::nullopt;
  // Eq. 11 argmax over the head-of-line snapshot, ties to the higher class.
  const ClassId best = select_class<Best::kMax>(
      [s = sdp().data(), now](ClassId c, const ClassHead& h) {
        return wtp_priority(now - h.arrival, s[c]);
      });
  return backlog_.pop(best);
}

}  // namespace pds
