#include "sched/additive.hpp"

#include "util/contracts.hpp"

namespace pds {

std::uint32_t AdditiveWtpScheduler::dequeue_burst(SimTime now, Packet* out,
                                                  std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  if (backlog_.empty()) return 0;
  // Head-start argmax (wait + s, ties to the higher class) over the
  // head-of-line snapshot.
  const ClassId best = select_class<Best::kMax>(
      [s = sdp().data(), now](ClassId c, const ClassHead& h) {
        const SimTime wait = now - h.arrival;
        PDS_REQUIRE(wait >= 0.0);
        return wait + s[c];
      });
  return backlog_.pop_burst(best, max_k, out);
}

}  // namespace pds
