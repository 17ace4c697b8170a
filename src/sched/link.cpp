#include "sched/link.hpp"

#include <string>

#include "sched/tag.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

// PLR push-out makes room by dropping a queued packet, and a tag
// scheduler's drop_tail never returns one.
void check_can_push_out(const Scheduler& sched) {
  PDS_CHECK(dynamic_cast<const TagScheduler*>(&sched) == nullptr,
            "PLR push-out needs a scheduler that can drop a queued packet, "
            "got " + std::string(sched.name()));
}

}  // namespace

Link::Link(Simulator& sim, Scheduler& sched, double capacity,
           DepartureHandler on_departure)
    : sim_(sim),
      sched_(&sched),
      capacity_(capacity),
      on_departure_(std::move(on_departure)),
      arrivals_(sched.num_classes(), 0),
      drops_(sched.num_classes(), 0) {
  PDS_CHECK(capacity > 0.0, "link capacity must be positive");
  PDS_CHECK(static_cast<bool>(on_departure_), "null departure handler");
}

void Link::set_buffer(std::uint64_t buffer_packets, DropPolicy policy,
                      std::unique_ptr<PlrDropper> plr) {
  PDS_CHECK(!has_buffer(), "link already has a buffer");
  for (const std::uint64_t a : arrivals_) {
    PDS_CHECK(a == 0, "set_buffer must precede the first arrival");
  }
  PDS_CHECK(buffer_packets >= 1, "buffer must hold at least one packet");
  if (policy == DropPolicy::kPlr) {
    PDS_CHECK(plr != nullptr, "PLR policy requires a dropper");
    PDS_CHECK(plr->num_classes() == sched_->num_classes(),
              "dropper/scheduler class count mismatch");
    check_can_push_out(*sched_);
  } else {
    PDS_CHECK(plr == nullptr, "dropper given but policy is not PLR");
  }
  buffer_packets_ = buffer_packets;
  policy_ = policy;
  plr_ = std::move(plr);
}

ProbeContext Link::probe_context(ClassId cls) const {
  return ProbeContext{hop_, sched_->backlog_packets(cls),
                      sched_->backlog_bytes(cls)};
}

void Link::arrive(Packet p) {
  PDS_CHECK(p.cls < arrivals_.size(), "class index out of range");
  ++arrivals_[p.cls];
  if (buffer_packets_ != 0 && !admit_to_buffer(p)) return;
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

bool Link::admit_to_buffer(const Packet& p) {
  const ClassId cls = p.cls;
  if (plr_) plr_->note_arrival(cls);

  // Fault-injected burst loss sits in front of the buffer: a lost packet
  // never contends for admission and never charges the drop policy.
  if (burst_rate_ > 0.0 && burst_rng_.uniform01() < burst_rate_) {
    ++burst_drops_;
    PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(cls), sim_.now()));
    return false;
  }

  if (sched_->total_backlog_packets() < buffer_packets_) return true;

  // Buffer overflow.
  if (policy_ == DropPolicy::kDropIncoming) {
    ++drops_[cls];
    PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(cls), sim_.now()));
    return false;
  }

  // PLR: the arriving packet's class is a candidate victim even when it has
  // nothing queued (the arrival itself would be pushed out). The scratch
  // vector is a member so repeated overflows reuse its capacity.
  backlogged_.assign(sched_->num_classes(), false);
  for (ClassId c = 0; c < sched_->num_classes(); ++c) {
    backlogged_[c] = sched_->backlog_packets(c) > 0;
  }
  backlogged_[cls] = true;
  const auto victim = plr_->pick_victim(backlogged_);
  PDS_REQUIRE(victim.has_value());
  ++drops_[*victim];
  if (*victim == cls && sched_->backlog_packets(cls) == 0) {
    PDS_OBS_NOTIFY(probe_, on_drop(p, probe_context(cls), sim_.now()));
    return false;
  }
  const auto pushed_out = sched_->drop_tail(*victim);
  PDS_REQUIRE(pushed_out.has_value());
  PDS_OBS_NOTIFY(probe_, on_drop(*pushed_out, probe_context(pushed_out->cls),
                                 sim_.now()));
  return true;
}

void Link::set_burst_loss(double rate, Rng rng) {
  PDS_CHECK(has_buffer(), "burst loss needs a buffered link");
  PDS_CHECK(rate > 0.0 && rate <= 1.0, "burst loss rate must be in (0, 1]");
  burst_rate_ = rate;
  burst_rng_ = rng;
}

std::uint64_t Link::arrivals(ClassId cls) const {
  PDS_CHECK(cls < arrivals_.size(), "class index out of range");
  return arrivals_[cls];
}

std::uint64_t Link::drops(ClassId cls) const {
  PDS_CHECK(cls < drops_.size(), "class index out of range");
  return drops_[cls];
}

double Link::loss_rate(ClassId cls) const {
  PDS_CHECK(cls < arrivals_.size(), "class index out of range");
  if (arrivals_[cls] == 0) return 0.0;
  return static_cast<double>(drops_[cls]) /
         static_cast<double>(arrivals_[cls]);
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
  if (has_buffer() && policy_ == DropPolicy::kPlr) check_can_push_out(sched);
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

void Link::try_start_service() {
  if (busy_ || !service_enabled() || sched_->empty()) return;
  start_transmission();
}

void Link::start_transmission() {
  auto next = sched_->dequeue(sim_.now());
  PDS_REQUIRE(next.has_value());  // work conservation: backlog => packet
  Packet& p = in_flight_;
  p = *next;
  const SimTime wait = sim_.now() - p.arrival;
  PDS_REQUIRE(wait >= 0.0);
  p.cum_queueing += wait;
  ++p.hops_done;
  in_flight_wait_ = wait;
  const SimTime tx =
      static_cast<double>(p.size_bytes) / (capacity_ * capacity_factor_);
  busy_time_ += tx;
  bytes_sent_ += p.size_bytes;
  ++packets_sent_;
  PDS_OBS_NOTIFY(probe_,
                 on_dequeue(p, probe_context(p.cls), sim_.now(), wait));
  busy_ = true;
  sim_.schedule_in(tx,
                   SimEvent([this] { complete_transmission(); }, "link.tx"));
}

void Link::complete_transmission() {
  // Delivery happens with busy_ still true: a departure handler may
  // synchronously re-arrive into this link (routing loops), and the next
  // transmission starts only after this one is delivered, from the
  // try_start_service below.
  Packet done = std::move(in_flight_);
  const SimTime wait = in_flight_wait_;
  PDS_OBS_NOTIFY(probe_,
                 on_depart(done, probe_context(done.cls), sim_.now(), wait));
  on_departure_(std::move(done), wait, sim_.now());
  busy_ = false;
  try_start_service();
}

}  // namespace pds
