#include "sched/bpr.hpp"

#include "util/contracts.hpp"

namespace pds {

BprScheduler::BprScheduler(const SchedulerConfig& config)
    : ClassBasedScheduler(config, /*needs_capacity=*/true),
      rates_(config.num_classes(), 0.0),
      virtual_service_(config.num_classes(), 0.0) {}

void BprScheduler::set_weights(const std::vector<double>& sdp) {
  ClassBasedScheduler::set_weights(sdp);
  recompute_rates();
}

void BprScheduler::on_backlog_adopted(SimTime) {
  for (double& v : virtual_service_) v = 0.0;
  any_departure_yet_ = false;
  last_departure_ = kTimeZero;
  recompute_rates();
}

double BprScheduler::rate(ClassId cls) const {
  PDS_CHECK(cls < num_classes(), "class index out of range");
  return rates_[cls];
}

void BprScheduler::recompute_rates() {
  // Eq. 8/9: r_i = R * s_i q_i / sum_k s_k q_k over backlogged classes,
  // with byte backlogs (the fluid server serves bytes). The snapshot's
  // `bytes` field is exact for idle classes too (zero), so one pass over
  // the flat array suffices.
  const ClassHead* heads = backlog_.heads();
  const double* s = sdp().data();
  const ClassId n = backlog_.num_classes();
  double denom = 0.0;
  for (ClassId c = 0; c < n; ++c) {
    denom += s[c] * static_cast<double>(heads[c].bytes);
  }
  for (ClassId c = 0; c < n; ++c) {
    const double weighted = s[c] * static_cast<double>(heads[c].bytes);
    rates_[c] = denom > 0.0 ? link_capacity() * weighted / denom : 0.0;
  }
}

std::optional<Packet> BprScheduler::dequeue(SimTime now) {
  if (backlog_.empty()) return std::nullopt;
  const SimTime elapsed = any_departure_yet_ ? now - last_departure_ : 0.0;
  PDS_REQUIRE(elapsed >= 0.0);
  // Virtual service since t^{k-1}: zero for idle classes and for heads that
  // reached the front after it, otherwise v_i += r_i(t^{k-1}) * elapsed.
  const ClassHead* heads = backlog_.heads();
  const double* rates = rates_.data();
  double* vs = virtual_service_.data();
  const SimTime last = last_departure_;
  for (ClassId c = 0; c < backlog_.num_classes(); ++c) {
    if (heads[c].packets == 0 || !any_departure_yet_ ||
        heads[c].arrival > last) {
      vs[c] = 0.0;
    } else {
      vs[c] += rates[c] * elapsed;
    }
  }
  // Serve the head with the least *remaining* virtual work, L_i - v_i
  // (Eq. 21); ties favour the higher class.
  const ClassId best =
      select_class<Best::kMin>([vs](ClassId c, const ClassHead& h) {
        return static_cast<double>(h.head_bytes) - vs[c];
      });
  Packet p = backlog_.pop(best);
  virtual_service_[best] = 0.0;  // the new head starts with no credit
  recompute_rates();
  last_departure_ = now;
  any_departure_yet_ = true;
  return p;
}

}  // namespace pds
