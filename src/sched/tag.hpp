// Tag schedulers: serve the backlogged head with the smallest tag.
//
// Each arrival is stamped with a tag when it is queued, and every decision
// serves the class whose head carries the smallest tag (`<=`: ties go to
// the higher class, as in the other schedulers of this library). Three
// baselines differ only in the stamp:
//
//   FCFS           tag = arrival count (FIFO is the multiclass discipline
//                  whose tag is the arrival order)
//   SCFQ           tag = max(v, F_prev_i) + L / w_i   (shared virtual time)
//   Virtual Clock  tag = max(now, VC_i) + L / w_i     (per-class clocks)
//
// A burst of k is k independent decisions. Tail drops are unsupported
// (drop_tail returns nullopt): the stamp has already advanced a clock that
// a push-out could not rewind. Tags live beside the class rings and do not
// travel with a released backlog, so tag schedulers are not swappable.
#pragma once

#include <deque>

#include "sched/scheduler.hpp"

namespace pds {

class TagScheduler : public ClassBasedScheduler {
 public:
  void enqueue(Packet p, SimTime now) override;
  std::uint32_t dequeue_burst(SimTime now, Packet* out,
                              std::uint32_t max_k) override;
  std::optional<Packet> drop_tail(ClassId) override { return std::nullopt; }

 protected:
  explicit TagScheduler(const SchedulerConfig& config);

  // Tag of an arrival about to be queued; may advance the stamp's clocks.
  virtual double stamp(const Packet& p, SimTime now) = 0;
  // Runs after each served packet, with the tag it was queued under.
  virtual void on_served(double /*tag*/) {}

 private:
  // Tags of queued packets, FIFO-parallel to each class ring.
  std::vector<std::deque<double>> tags_;
};

// First-Come-First-Served: the classless baseline.
//
// FCFS ignores classes for ordering but still reports per-class backlog so it
// can stand in for the "work-conserving FCFS server" of the conservation law
// (Eq. 5) and the feasibility conditions (Eq. 7): the delay d(lambda) used
// there is exactly the delay this scheduler yields on the aggregate stream.
class FcfsScheduler final : public TagScheduler {
 public:
  // `num_classes` is only used for backlog reporting; pass 1 when classes do
  // not matter (subset FCFS runs in the feasibility checker).
  explicit FcfsScheduler(std::uint32_t num_classes);

  std::string_view name() const noexcept override { return "FCFS"; }

  // FCFS has no weights to retune.
  void set_weights(const std::vector<double>& sdp) override;

 protected:
  double stamp(const Packet& p, SimTime now) override;

 private:
  double arrivals_ = 0.0;
};

// Self-Clocked Fair Queueing — the WFQ-family capacity-differentiation
// baseline (Section 2.1's "Capacity Differentiation" model).
//
// SCFQ (Golestani, INFOCOM'94) approximates GPS with a virtual time equal to
// the finish tag of the packet most recently selected for service. A packet
// of class i arriving at virtual time v gets finish tag
//
//     F = max(v, F_prev_i) + L / w_i
//
// and the backlogged head with the smallest tag is served. Weights are the
// SDPs, so the *bandwidth* ratios are controllable — but the *delay* ratios
// drift with class load, which is the model's documented weakness. A live
// retune shapes the tags of *future* arrivals; queued tags keep the rates
// they were admitted under.
class ScfqScheduler final : public TagScheduler {
 public:
  explicit ScfqScheduler(const SchedulerConfig& config);

  std::string_view name() const noexcept override { return "SCFQ"; }

  double virtual_time() const noexcept { return vtime_; }

 protected:
  double stamp(const Packet& p, SimTime now) override;
  void on_served(double tag) override;

 private:
  std::vector<double> last_finish_;  // F_prev per class
  double vtime_ = 0.0;
};

// Virtual Clock scheduler (Zhang, SIGCOMM'90) — a rate-reservation
// baseline.
//
// Each class owns a virtual clock that advances by L / w_i per queued
// packet, never falling behind real time:
//
//     VC_i = max(now, VC_i) + L / w_i,   tag(packet) = VC_i,
//
// and the backlogged head with the smallest tag is served. Unlike SCFQ's
// shared virtual time, a class that idles does not bank credit (its clock
// is pulled up to `now`), but a class that *over-uses* while others idle is
// later punished — the classic fairness critique. Included as the second
// capacity-differentiation baseline: bandwidth shares are controllable, but
// like the other members of the family it cannot pin delay *ratios*. A
// live retune advances the clocks of *future* arrivals only.
class VirtualClockScheduler final : public TagScheduler {
 public:
  explicit VirtualClockScheduler(const SchedulerConfig& config);

  std::string_view name() const noexcept override { return "VC"; }

  double clock(ClassId cls) const;

 protected:
  double stamp(const Packet& p, SimTime now) override;

 private:
  std::vector<double> vclock_;
};

}  // namespace pds
