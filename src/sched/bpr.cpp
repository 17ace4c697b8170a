#include "sched/bpr.hpp"

#include "sched/scan.hpp"
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

std::uint32_t BprScheduler::dequeue_burst(SimTime now, Packet* out,
                                          std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  if (backlog_.empty()) return 0;
  const SimTime elapsed = any_departure_yet_ ? now - last_departure_ : 0.0;
  PDS_REQUIRE(elapsed >= 0.0);
  // Updates virtual service for all backlogged queues and picks the head
  // with the least *remaining* virtual work, L_i - v_i (Eq. 21). Ties
  // favour the higher class. Kernels in sched/scan.cpp.
  const ClassId best =
      scan::bpr_select(heads_view(), rates_.data(), virtual_service_.data(),
                       elapsed, last_departure_, any_departure_yet_);
  // One Eq. 21 decision serves up to max_k consecutive heads of the winner;
  // the virtual-time bookkeeping treats the burst as a single departure at
  // `now` (part of why k > 1 changes traces).
  const std::uint32_t k = backlog_.pop_burst(best, max_k, out);
  virtual_service_[best] = 0.0;  // the new head starts with no credit
  recompute_rates();
  last_departure_ = now;
  any_departure_yet_ = true;
  return k;
}

}  // namespace pds
