#include "sched/additive.hpp"

#include "util/contracts.hpp"

namespace pds {

std::optional<Packet> AdditiveWtpScheduler::dequeue(SimTime now) {
  if (backlog_.empty()) return std::nullopt;
  // Head-start argmax (wait + s, ties to the higher class) over the
  // head-of-line snapshot.
  const ClassId best = select_class<Best::kMax>(
      [s = sdp().data(), now](ClassId c, const ClassHead& h) {
        const SimTime wait = now - h.arrival;
        PDS_REQUIRE(wait >= 0.0);
        return wait + s[c];
      });
  return backlog_.pop(best);
}

}  // namespace pds
