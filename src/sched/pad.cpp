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

std::optional<Packet> PadScheduler::dequeue(SimTime now) {
  if (backlog_.empty()) return std::nullopt;
  const ClassId best = select(now);
  Packet p = backlog_.pop(best);
  cum_delay_[best] += now - p.arrival;
  ++served_[best];
  return p;
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
