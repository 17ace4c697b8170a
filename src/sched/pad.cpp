#include "sched/pad.hpp"

#include "sched/wtp.hpp"
#include "util/contracts.hpp"

namespace pds {

PadScheduler::PadScheduler(const SchedulerConfig& config)
    : ClassBasedScheduler(config),
      cum_delay_(config.num_classes(), 0.0),
      served_(config.num_classes(), 0) {}

double PadScheduler::normalized_average_delay(ClassId cls, SimTime now) const {
  PDS_CHECK(cls < num_classes(), "class index out of range");
  const ClassHead& h = backlog_.head_of(cls);
  double sum = cum_delay_[cls];
  std::uint64_t n = served_[cls];
  if (h.packets != 0) {
    sum += now - h.arrival;
    n += 1;
  }
  if (n == 0) return 0.0;
  return (sum / static_cast<double>(n)) * sdp()[cls];
}

ClassId PadScheduler::select(SimTime now) const {
  return select_class<Best::kMax>(
      [cum = cum_delay(), served = served(), s = sdp().data(), now](
          ClassId c, const ClassHead& h) {
        return pad_priority(cum[c], served[c], now - h.arrival, s[c]);
      });
}

std::uint32_t PadScheduler::dequeue_burst(SimTime now, Packet* out,
                                          std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  if (backlog_.empty()) return 0;
  const ClassId best = select(now);
  const std::uint32_t k = backlog_.pop_burst(best, max_k, out);
  // Every burst packet is accounted at decision time: the scheduler does
  // not know the link rate, so the per-packet transmission stagger is the
  // Link's business (and part of why k > 1 changes traces).
  for (std::uint32_t i = 0; i < k; ++i) {
    cum_delay_[best] += now - out[i].arrival;
  }
  served_[best] += k;
  return k;
}

HpdScheduler::HpdScheduler(const SchedulerConfig& config)
    : PadScheduler(config), g_(config.hpd_g) {}

ClassId HpdScheduler::select(SimTime now) const {
  return select_class<Best::kMax>(
      [cum = cum_delay(), served = served(), s = sdp().data(), g = g_, now](
          ClassId c, const ClassHead& h) {
        const SimTime wait = now - h.arrival;
        return g * wtp_priority(wait, s[c]) +
               (1.0 - g) * pad_priority(cum[c], served[c], wait, s[c]);
      });
}

}  // namespace pds
