// Scheduler interface and the one base every multi-class packet scheduler
// derives from.
//
// A scheduler owns the per-class queues of one output link. The surrounding
// Link pulls the next packets with dequeue_burst() whenever the transmitter
// goes idle; work conservation is guaranteed by construction because a
// dequeue must return a packet whenever any class is backlogged.
//
// Scheduler Differentiation Parameters (SDPs) follow the paper's convention:
// s_0 <= s_1 <= ... <= s_{N-1}, with the highest class (largest s) receiving
// the best (lowest-delay) treatment. Under both WTP and BPR the achieved
// Delay Differentiation Parameters in heavy load are the inverses of the
// SDPs: d_i / d_j -> s_j / s_i (Eq. 10).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsim/time.hpp"
#include "obs/probe.hpp"
#include "packet/arena.hpp"
#include "packet/packet.hpp"
#include "queueing/backlog.hpp"
#include "sched/scan.hpp"

namespace pds {

// Upper bound on the burst knob (packets drained per scheduler decision);
// bounds the Link's burst staging buffer.
inline constexpr std::uint32_t kMaxBurst = 64;

struct SchedulerConfig {
  // Scheduler differentiation parameters, one per class, non-decreasing and
  // strictly positive. The vector length defines the number of classes.
  std::vector<double> sdp;

  // Output link capacity in bytes per time unit. Required by rate-based
  // schedulers (BPR); ignored by priority-based ones.
  double link_capacity = 0.0;

  // HPD only: weight of the WTP component (g in the literature).
  // Must lie in (0, 1]: g -> 0 approaches pure PAD, g = 1 is pure WTP.
  double hpd_g = 0.875;

  // DRR only: quantum granted to a class with s = 1, in bytes.
  double drr_quantum_bytes = 1500.0;

  // Packets drained per scheduler decision (Link burst transmit). 1 — the
  // default — is classic one-packet service; k > 1 serves up to k
  // consecutive head packets of the winning class per decision (see
  // docs/architecture.md, "Batched packet plane"). Bounded by kMaxBurst.
  // Validated here; Network hands it to Link::set_burst, where it acts.
  std::uint32_t burst = 1;

  // Optional backing store for the per-class rings (see PacketArena). Not
  // owned; must outlive the scheduler. nullptr == global allocator.
  PacketArena* arena = nullptr;

  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(sdp.size());
  }

  // Throws std::invalid_argument on malformed parameters. `needs_capacity`
  // adds the positivity requirement on link_capacity.
  void validate(bool needs_capacity = false) const;
};

// The pure interface Link drives. Every scheduler in the library derives
// from ClassBasedScheduler below; the interface stays abstract so a
// decorator (a timing wrapper, say) can stand in for a scheduler on a Link.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Adds a packet (whose `arrival` field must already be stamped with the
  // enqueue time at this hop) to its class queue.
  virtual void enqueue(Packet p, SimTime now) = 0;

  // Selects, removes and returns the next packet to transmit, or nullopt if
  // no class is backlogged. `now` is the instant transmission would start.
  // Equivalent to dequeue_burst(now, &p, 1); Link transmits through
  // dequeue_burst.
  virtual std::optional<Packet> dequeue(SimTime now) = 0;

  // Burst variant: removes up to `max_k` packets into `out` (capacity >=
  // max_k) and returns how many were taken (0 iff nothing is backlogged).
  // The proportional schedulers (WTP/BPR/additive/PAD/HPD) make ONE
  // priority decision and drain up to max_k consecutive head packets of the
  // winning class, which is the paper-faithful reading of a burst: the
  // decision cost is amortized, the winner is not re-elected mid-burst.
  // FCFS, SP, DRR, SCFQ and VC take max_k independent decisions instead.
  // With max_k == 1 both forms are one decision.
  virtual std::uint32_t dequeue_burst(SimTime now, Packet* out,
                                      std::uint32_t max_k) = 0;

  virtual std::string_view name() const noexcept = 0;

  // Push-out support for droppers: removes and returns the most recently
  // arrived packet of `cls`, or nullopt if the scheduler does not support
  // tail drops (FCFS, SCFQ, VC) or the class is empty. Schedulers that
  // maintain per-packet auxiliary state must keep it consistent.
  virtual std::optional<Packet> drop_tail(ClassId cls) = 0;

  virtual bool empty() const noexcept = 0;
  virtual std::uint32_t num_classes() const noexcept = 0;
  virtual std::uint64_t backlog_packets(ClassId cls) const = 0;
  virtual std::uint64_t backlog_bytes(ClassId cls) const = 0;

  // --- Live reconfiguration hooks (driven by ctrl/) ----------------------

  // Replaces the per-class weights (SDPs) in place without touching any
  // backlog: one entry per class, strictly positive, non-decreasing. FCFS,
  // which has no weights, rejects.
  virtual void set_weights(const std::vector<double>& sdp) = 0;

  // Aggregate packet backlog across all classes (overload-guard input).
  virtual std::uint64_t total_backlog_packets() const = 0;

  // Longest head-of-line wait across backlogged classes at `now`; zero when
  // idle.
  virtual SimTime max_head_wait(SimTime now) const = 0;

  // Observability: attaches a lifecycle probe (nullptr detaches). The
  // scheduler emits exactly one on_enqueue per accepted packet, stamped with
  // `hop` and the packet's post-insert class backlog. The probe must outlive
  // the scheduler or be detached first.
  void set_probe(PacketProbe* probe, std::uint32_t hop = 0) noexcept {
    probe_ = probe;
    probe_hop_ = hop;
  }
  PacketProbe* probe() const noexcept { return probe_; }

 protected:
  Scheduler() = default;

  // Fires the probe for a completed enqueue. Every enqueue() implementation
  // must call this exactly once, after the packet is in its queue. (Packet
  // is trivially copyable, so implementations keep a usable copy even after
  // moving the argument into the backlog.)
  void notify_enqueued([[maybe_unused]] const Packet& p,
                       [[maybe_unused]] SimTime now) const {
    PDS_OBS_NOTIFY(probe_,
                   on_enqueue(p,
                              ProbeContext{probe_hop_, backlog_packets(p.cls),
                                           backlog_bytes(p.cls)},
                              now));
  }

 private:
  PacketProbe* probe_ = nullptr;
  std::uint32_t probe_hop_ = 0;
};

// The base of every scheduler: one FIFO queue per class (a
// MultiClassBacklog), the per-class weights, and one decision rule that
// each subclass writes as dequeue_burst.
class ClassBasedScheduler : public Scheduler {
 public:
  bool empty() const noexcept override { return backlog_.empty(); }
  std::uint32_t num_classes() const noexcept override {
    return backlog_.num_classes();
  }
  std::uint64_t backlog_packets(ClassId cls) const override {
    PDS_CHECK(cls < backlog_.num_classes(), "class index out of range");
    return backlog_.head_of(cls).packets;
  }
  std::uint64_t backlog_bytes(ClassId cls) const override {
    PDS_CHECK(cls < backlog_.num_classes(), "class index out of range");
    return backlog_.head_of(cls).bytes;
  }

  void enqueue(Packet p, SimTime now) override;
  std::optional<Packet> dequeue(SimTime now) final;
  std::optional<Packet> drop_tail(ClassId cls) override;

  void set_weights(const std::vector<double>& sdp) override;
  std::uint64_t total_backlog_packets() const override {
    return backlog_.total_packets();
  }
  SimTime max_head_wait(SimTime now) const override;

  // --- Live scheduler swap (ctrl/) ---------------------------------------
  // Hands this scheduler's backlog — class rings and head snapshot intact —
  // to a replacement during a live swap, leaving this scheduler with a
  // fresh empty backlog so it stays safe to destroy or reuse. The
  // counterpart adopt_backlog() installs the released backlog
  // and lets subclasses rebuild derived state (DRR active ring, BPR rates)
  // via on_backlog_adopted(). The tag schedulers (sched/tag.hpp) neither
  // give nor take a backlog: their per-packet tags do not travel with it
  // (see can_swap_backlog in sched/factory.hpp).
  MultiClassBacklog release_backlog();
  void adopt_backlog(MultiClassBacklog&& backlog, SimTime now);

 protected:
  explicit ClassBasedScheduler(const SchedulerConfig& config,
                               bool needs_capacity = false);

  // Called by adopt_backlog() after backlog_ is installed; subclasses that
  // derive state from backlog occupancy (DRR) or per-packet history (BPR)
  // override to rebuild it deterministically.
  virtual void on_backlog_adopted(SimTime now);

  const std::vector<double>& sdp() const noexcept { return sdp_; }
  double link_capacity() const noexcept { return link_capacity_; }

  // The backlog's head snapshot, as the scan kernels read it.
  scan::Heads heads_view() const noexcept {
    return scan::Heads{backlog_.heads(), backlog_.num_classes()};
  }

  MultiClassBacklog backlog_;

 private:
  std::vector<double> sdp_;
  double link_capacity_;
};

}  // namespace pds
