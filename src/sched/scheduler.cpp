#include "sched/scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/contracts.hpp"

namespace pds {

void SchedulerConfig::validate(bool needs_capacity) const {
  PDS_CHECK(!sdp.empty(), "at least one class required");
  for (std::size_t i = 0; i < sdp.size(); ++i) {
    PDS_CHECK(sdp[i] > 0.0, "SDPs must be positive");
    if (i > 0) {
      PDS_CHECK(sdp[i] >= sdp[i - 1],
                "SDPs must be non-decreasing (higher class = larger s)");
    }
  }
  if (needs_capacity) {
    PDS_CHECK(link_capacity > 0.0, "link capacity required");
  }
  // g = 0 would degenerate HPD to pure PAD while still paying the hybrid
  // bookkeeping; callers who want PAD should instantiate PAD directly.
  PDS_CHECK(hpd_g > 0.0 && hpd_g <= 1.0, "hpd_g must be in (0,1]");
  PDS_CHECK(drr_quantum_bytes > 0.0, "DRR quantum must be positive");
  PDS_CHECK(burst >= 1 && burst <= kMaxBurst,
            "burst must be in [1, " + std::to_string(kMaxBurst) + "]");
}

ClassBasedScheduler::ClassBasedScheduler(const SchedulerConfig& config,
                                         bool needs_capacity)
    : backlog_(config.num_classes(), config.arena),
      sdp_(config.sdp),
      link_capacity_(config.link_capacity) {
  config.validate(needs_capacity);
}

void ClassBasedScheduler::enqueue(Packet p, SimTime now) {
  PDS_CHECK(p.arrival <= now, "packet arrival stamped in the future");
  backlog_.push(p);
  notify_enqueued(p, now);
}

std::optional<Packet> ClassBasedScheduler::dequeue(SimTime now) {
  Packet p;
  if (dequeue_burst(now, &p, 1) == 0) return std::nullopt;
  return p;
}

void ClassBasedScheduler::set_weights(const std::vector<double>& sdp) {
  PDS_CHECK(sdp.size() == num_classes(),
            "weight count must match the class count");
  for (std::size_t i = 0; i < sdp.size(); ++i) {
    PDS_CHECK(sdp[i] > 0.0, "weights must be positive");
    if (i > 0) {
      PDS_CHECK(sdp[i] >= sdp[i - 1],
                "weights must be non-decreasing (higher class = larger s)");
    }
  }
  // In-place rewrite: same length, no reallocation, backlogs untouched.
  std::copy(sdp.begin(), sdp.end(), sdp_.begin());
}

SimTime ClassBasedScheduler::max_head_wait(SimTime now) const {
  SimTime worst = kTimeZero;
  const ClassHead* heads = backlog_.heads();
  for (ClassId c = 0; c < num_classes(); ++c) {
    if (heads[c].packets != 0 && now - heads[c].arrival > worst) {
      worst = now - heads[c].arrival;
    }
  }
  return worst;
}

MultiClassBacklog ClassBasedScheduler::release_backlog() {
  MultiClassBacklog released = std::move(backlog_);
  // Leave the retired scheduler with a valid empty backlog: it may still be
  // destroyed, inspected, or swapped back in later.
  backlog_ = MultiClassBacklog(released.num_classes(), released.arena());
  return released;
}

void ClassBasedScheduler::adopt_backlog(MultiClassBacklog&& backlog,
                                        SimTime now) {
  PDS_CHECK(backlog.num_classes() == num_classes(),
            "backlog handoff across different class counts");
  PDS_CHECK(backlog_.empty(), "adopting scheduler must start empty");
  backlog_ = std::move(backlog);
  on_backlog_adopted(now);
}

void ClassBasedScheduler::on_backlog_adopted(SimTime) {}

std::optional<Packet> ClassBasedScheduler::drop_tail(ClassId cls) {
  PDS_CHECK(cls < num_classes(), "class index out of range");
  if (backlog_.head_of(cls).packets == 0) return std::nullopt;
  return backlog_.pop_tail(cls);
}

}  // namespace pds
