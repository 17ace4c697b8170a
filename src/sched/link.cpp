#include "sched/link.hpp"

#include "util/contracts.hpp"

namespace pds {

Link::Link(Simulator& sim, Scheduler& sched, double capacity,
           DepartureHandler on_departure)
    : sim_(sim),
      sched_(&sched),
      capacity_(capacity),
      on_departure_(std::move(on_departure)),
      burst_buf_(burst_),
      burst_waits_(burst_) {
  PDS_CHECK(capacity > 0.0, "link capacity must be positive");
  PDS_CHECK(static_cast<bool>(on_departure_), "null departure handler");
}

ProbeContext Link::probe_context(ClassId cls) const {
  return ProbeContext{hop_, sched_->backlog_packets(cls),
                      sched_->backlog_bytes(cls)};
}

void Link::arrive(Packet p) {
  p.arrival = sim_.now();
  PDS_OBS_NOTIFY(probe_, on_arrive(p, probe_context(p.cls), sim_.now()));
  if (down_ && outage_mode_ == OutageMode::kDropArrivals) {
    ++fault_drops_;
    PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(p.cls), sim_.now()));
    return;
  }
  if (ctrl_gate_ && !admit(p)) return;
  sched_->enqueue(std::move(p), sim_.now());
  try_start_service();
}

bool Link::admit(const Packet& p) {
  if (!class_admit_.empty() && p.cls < class_admit_.size() &&
      class_admit_[p.cls] == 0) {
    ++drain_drops_;
    PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(p.cls), sim_.now()));
    if (on_control_drop_) {
      on_control_drop_(p, ControlDropKind::kDrain, sim_.now());
    }
    return false;
  }
  if (shed_.watermark_packets != 0 && p.cls < shed_.classes) {
    bool over = sched_->total_backlog_packets() >= shed_.watermark_packets;
    if (!over && shed_.sojourn > 0.0) {
      over = sched_->max_head_wait(sim_.now()) >= shed_.sojourn;
    }
    if (over) {
      ++shed_drops_;
      PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(p.cls), sim_.now()));
      if (on_control_drop_) {
        on_control_drop_(p, ControlDropKind::kShed, sim_.now());
      }
      return false;
    }
  }
  return true;
}

void Link::set_scheduler(Scheduler& sched) {
  PDS_CHECK(sched.num_classes() == sched_->num_classes(),
            "scheduler swap across different class counts");
  sched_ = &sched;
  sched_->set_probe(probe_, hop_);
}

void Link::set_class_admission(ClassId cls, bool admit) {
  PDS_CHECK(cls < sched_->num_classes(), "class index out of range");
  if (class_admit_.empty()) {
    class_admit_.assign(sched_->num_classes(), 1);
  }
  class_admit_[cls] = admit ? 1 : 0;
  bool any_drained = false;
  for (std::uint8_t a : class_admit_) any_drained |= (a == 0);
  ctrl_gate_ = any_drained || shedding();
}

bool Link::class_admitted(ClassId cls) const {
  PDS_CHECK(cls < sched_->num_classes(), "class index out of range");
  return class_admit_.empty() || class_admit_[cls] != 0;
}

void Link::set_shed(const ShedPolicy& policy) {
  PDS_CHECK(policy.watermark_packets >= 1, "shed watermark must be >= 1");
  PDS_CHECK(policy.sojourn >= 0.0, "shed sojourn must be non-negative");
  PDS_CHECK(policy.classes >= 1 && policy.classes <= sched_->num_classes(),
            "shed class count out of range");
  shed_ = policy;
  ctrl_gate_ = true;
}

void Link::clear_shed() {
  shed_ = ShedPolicy{};
  bool any_drained = false;
  for (std::uint8_t a : class_admit_) any_drained |= (a == 0);
  ctrl_gate_ = any_drained;
}

void Link::set_capacity_factor(double factor) {
  PDS_CHECK(factor > 0.0 && factor <= 1.0,
            "capacity factor must be in (0, 1]");
  capacity_factor_ = factor;
}

void Link::take_down(OutageMode mode) {
  PDS_CHECK(!down_, "link is already down");
  down_ = true;
  outage_mode_ = mode;
}

void Link::bring_up() {
  PDS_CHECK(down_, "link is not down");
  down_ = false;
  try_start_service();  // hold-and-release: drain whatever queued
}

void Link::stall() {
  PDS_CHECK(!stalled_, "link is already stalled");
  stalled_ = true;
}

void Link::resume() {
  PDS_CHECK(stalled_, "link is not stalled");
  stalled_ = false;
  try_start_service();
}

void Link::set_burst(std::uint32_t k) {
  PDS_CHECK(k >= 1 && k <= kMaxBurst, "burst must be in [1, kMaxBurst]");
  PDS_CHECK(!busy_, "cannot change burst while transmitting");
  burst_ = k;
  burst_buf_.resize(k);
  burst_waits_.resize(k);
}

void Link::try_start_service() {
  if (busy_ || !service_enabled() || sched_->empty()) return;
  start_burst();
}

void Link::start_burst() {
  const std::uint32_t k =
      sched_->dequeue_burst(sim_.now(), burst_buf_.data(), burst_);
  PDS_REQUIRE(k >= 1);  // work conservation: backlog => at least one packet
  burst_count_ = k;
  const double rate = capacity_ * capacity_factor_;
  SimTime total_tx = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    Packet& p = burst_buf_[i];
    // Each packet's transmission starts when its predecessors in the burst
    // have finished; the queueing delay is measured against that staggered
    // start, exactly as if the packets had been dequeued one by one.
    const SimTime wait = (sim_.now() + total_tx) - p.arrival;
    PDS_REQUIRE(wait >= 0.0);
    p.cum_queueing += wait;
    ++p.hops_done;
    burst_waits_[i] = wait;
    const SimTime tx = static_cast<double>(p.size_bytes) / rate;
    busy_time_ += tx;
    bytes_sent_ += p.size_bytes;
    ++packets_sent_;
    PDS_OBS_NOTIFY(probe_,
                   on_dequeue(p, probe_context(p.cls), sim_.now(), wait));
    total_tx += tx;
  }
  busy_ = true;
  // One completion event for the whole burst; the packets ride in
  // burst_buf_, so a burst costs one event no matter its length.
  sim_.schedule_in(total_tx,
                   SimEvent([this] { complete_burst(); }, "link.tx"));
}

void Link::complete_burst() {
  // Delivery happens with busy_ still true: a departure handler may
  // synchronously re-arrive into this link (routing loops), and a nested
  // try_start_service must not start a new burst that overwrites the
  // buffer being drained.
  const std::uint32_t k = burst_count_;
  burst_count_ = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    Packet done = std::move(burst_buf_[i]);
    PDS_OBS_NOTIFY(probe_, on_depart(done, probe_context(done.cls),
                                     sim_.now(), burst_waits_[i]));
    on_departure_(std::move(done), burst_waits_[i], sim_.now());
  }
  busy_ = false;
  try_start_service();
}

}  // namespace pds
