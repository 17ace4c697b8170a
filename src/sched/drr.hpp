// Deficit Round Robin — a capacity-differentiation baseline (Section 2.1).
//
// Each class receives a byte quantum proportional to its SDP on every visit
// of the round-robin pointer (Shreedhar & Varghese, SIGCOMM'95). Bandwidth
// shares are controllable, but the resulting *delay* ratios depend on class
// loads and burstiness — exactly the shortcoming the proportional model
// addresses — which the ablation benches demonstrate.
#pragma once

#include <deque>

#include "sched/scheduler.hpp"

namespace pds {

class DrrScheduler final : public ClassBasedScheduler {
 public:
  explicit DrrScheduler(const SchedulerConfig& config);

  void enqueue(Packet p, SimTime now) override;
  std::optional<Packet> dequeue(SimTime now) override;
  std::optional<Packet> drop_tail(ClassId cls) override;

  std::string_view name() const noexcept override { return "DRR"; }

  // Live retune: per-class quanta are recomputed from the new SDPs; deficits
  // and the active ring are untouched.
  void set_weights(const std::vector<double>& sdp) override;

  double deficit(ClassId cls) const;

 protected:
  // Live swap-in: rebuilds the active ring from the adopted backlog in class
  // order with zero deficits (every backlogged class starts a fresh visit).
  void on_backlog_adopted(SimTime now) override;

 private:
  double quantum_bytes_;
  // Classes currently in the active ring, in visit order. A class enters at
  // the back when it becomes backlogged and leaves when its queue empties.
  std::deque<ClassId> active_;
  std::vector<bool> in_ring_;
  std::vector<double> deficit_;
  std::vector<double> quantum_;
  // True while the front class's current visit has already received its
  // quantum; cleared when the ring head changes.
  bool visit_started_ = false;
};

}  // namespace pds
