// Output link: the transmission server wrapped around a scheduler.
//
// The Link models one output port of a router: packets arrive, are handed to
// the scheduler, and whenever the transmitter is idle the scheduler's choice
// is transmitted at the link capacity. The per-hop *queueing delay* of a
// packet — the metric every experiment in the paper reports — is the time
// from arrival to the start of its transmission; the departure handler fires
// when the last byte leaves (which is when the packet reaches the next hop).
//
// The link is lossless (unbounded buffers), matching the paper's Section 3
// operating assumption of ECN-regulated sources in the stable region. The
// exceptions are scripted: fault injection (src/fault/ — an outage in
// drop-on-down mode discards arrivals, counted in fault_drops()) and the
// control plane (src/ctrl/ — class drains and the overload shed guard
// discard arrivals, counted in drain_drops()/shed_drops()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dsim/simulator.hpp"
#include "sched/scheduler.hpp"

namespace pds {

// What happens to packets that arrive while the link is down (see
// Link::take_down). Packets already queued when the outage begins are held
// and released on recovery under either mode; the mode only governs new
// arrivals during the outage.
enum class OutageMode {
  kDropArrivals,  // arrivals during the outage are dropped and counted
  kHoldArrivals,  // arrivals queue up normally and drain on recovery
};

// Why a control-plane drop happened (see Link::set_control_drop_handler).
enum class ControlDropKind {
  kDrain,  // the packet's class is drained (stopped admitting)
  kShed,   // the overload guard shed a low-class arrival
};

// Overload guard configuration (Link::set_shed). While set, arrivals of the
// `classes` lowest classes are dropped whenever the aggregate packet backlog
// is at or above `watermark_packets`, or — when `sojourn > 0` — the longest
// head-of-line wait is at or above `sojourn`. Higher classes are never shed:
// the guard degrades the cheapest service levels first, which is the
// proportional model's own notion of graceful degradation.
struct ShedPolicy {
  std::uint64_t watermark_packets = 0;  // aggregate-backlog watermark; >= 1
  SimTime sojourn = 0.0;                // optional sojourn watermark (0 = off)
  std::uint32_t classes = 1;            // how many lowest classes to shed
};

class Link {
 public:
  // `wait` is the queueing delay at this hop (excludes transmission). The
  // packet's cum_queueing/hops_done fields have already been updated.
  using DepartureHandler =
      std::function<void(Packet&& pkt, SimTime wait, SimTime now)>;

  // `capacity` is in bytes per time unit. The scheduler is owned elsewhere
  // and must outlive the link.
  Link(Simulator& sim, Scheduler& sched, double capacity,
       DepartureHandler on_departure);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Hands a packet to the scheduler at the current simulation time and
  // starts transmitting if the line is idle.
  void arrive(Packet p);

  double capacity() const noexcept { return capacity_; }
  bool busy() const noexcept { return busy_; }

  // Burst transmit: each scheduler decision drains up to `k` consecutive
  // packets (of the winning class, for the proportional schedulers) and
  // transmits them back to back as one busy period. k == 1 — the default —
  // is classic one-packet service; k > 1 changes traces (per-packet waits
  // are measured against staggered transmission starts, and departures fire
  // together at burst end — see docs/architecture.md, "Batched packet
  // plane"). May only be changed while the transmitter is idle;
  // k <= kMaxBurst.
  void set_burst(std::uint32_t k);
  std::uint32_t burst() const noexcept { return burst_; }

  // --- Fault injection (driven by fault/FaultInjector) -------------------
  //
  // All three fault states gate *future* transmissions only: a packet that
  // is already on the wire when a fault begins finishes at the rate it
  // started with (its completion event is immutable once scheduled), which
  // keeps fault onset deterministic and the busy-time accounting exact.

  // Scales the effective service rate to `factor * capacity` for packets
  // whose transmission starts from now on. Requires factor in (0, 1].
  void set_capacity_factor(double factor);
  double capacity_factor() const noexcept { return capacity_factor_; }

  // Outage. While down, no new transmission starts; arrivals are dropped
  // (kDropArrivals — counted in fault_drops() and reported through the
  // probe's on_drop) or queued for recovery
  // (kHoldArrivals). take_down on a down link and bring_up on an up link
  // are contract violations (the injector rejects overlapping outages).
  void take_down(OutageMode mode);
  void bring_up();
  bool down() const noexcept { return down_; }

  // Router stall: service pauses, arrivals keep queueing, resume restarts
  // the transmitter. Stalling a stalled link is a contract violation.
  void stall();
  void resume();
  bool stalled() const noexcept { return stalled_; }

  std::uint64_t fault_drops() const noexcept { return fault_drops_; }

  // --- Control plane (driven by ctrl/ControlInjector) --------------------

  // Called for every arrival dropped by a class drain or the shed guard.
  using ControlDropHandler =
      std::function<void(const Packet&, ControlDropKind, SimTime now)>;

  // Live scheduler swap: replaces the scheduler serving this link. The
  // caller must have handed the old scheduler's backlog to `sched` first
  // (ClassBasedScheduler::release_backlog/adopt_backlog); the class counts
  // must match. Safe mid-burst — the staged burst rides in the Link, not
  // the scheduler. The probe is re-attached so enqueue events keep the hop.
  void set_scheduler(Scheduler& sched);
  Scheduler& scheduler_mut() noexcept { return *sched_; }

  // Class drain: a non-admitted class drops its arrivals (counted in
  // drain_drops()) while its queued packets serve out normally. Classes
  // default to admitted; `class add` re-admits a drained class.
  void set_class_admission(ClassId cls, bool admit);
  bool class_admitted(ClassId cls) const;

  // Overload guard (see ShedPolicy). Requires watermark_packets >= 1 and
  // 1 <= classes <= num_classes; clear_shed() disarms it.
  void set_shed(const ShedPolicy& policy);
  void clear_shed();
  bool shedding() const noexcept { return shed_.watermark_packets != 0; }

  std::uint64_t drain_drops() const noexcept { return drain_drops_; }
  std::uint64_t shed_drops() const noexcept { return shed_drops_; }
  void set_control_drop_handler(ControlDropHandler handler) {
    on_control_drop_ = std::move(handler);
  }

  // Lifetime counters for work-conservation checks.
  double busy_time() const noexcept { return busy_time_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t packets_sent() const noexcept { return packets_sent_; }

  const Scheduler& scheduler() const noexcept { return *sched_; }

  // Observability: attaches a lifecycle probe (nullptr detaches) stamped
  // with `hop` for multi-hop attribution. The link emits, per transmitted
  // packet, exactly one on_arrive (before handing it to the scheduler), one
  // on_dequeue (start of transmission, with the queueing delay), and one
  // on_depart (end of transmission). Attaching here also attaches to the
  // scheduler so its on_enqueue events carry the same hop.
  void set_probe(PacketProbe* probe, std::uint32_t hop = 0) noexcept {
    probe_ = probe;
    hop_ = hop;
    sched_->set_probe(probe, hop);
  }

 private:
  void try_start_service();
  // The one transmit path: one scheduler decision fills burst_buf_ with up
  // to burst_ packets, and one completion event delivers them all. The
  // event captures only `this` and the packets ride in the preallocated
  // buffer, so a transmission performs no heap allocation.
  void start_burst();
  void complete_burst();

  ProbeContext probe_context(ClassId cls) const;

  // Control-plane admission check for one arrival; counts and reports the
  // drop when it fails. Only called while ctrl_gate_ is set, keeping the
  // plain (no control plan) arrival path one predictable branch.
  bool admit(const Packet& p);

  // True when the transmitter may start a new packet.
  bool service_enabled() const noexcept { return !down_ && !stalled_; }

  Simulator& sim_;
  Scheduler* sched_;
  double capacity_;
  DepartureHandler on_departure_;
  ControlDropHandler on_control_drop_;
  double capacity_factor_ = 1.0;
  bool down_ = false;
  bool stalled_ = false;
  OutageMode outage_mode_ = OutageMode::kDropArrivals;
  std::uint64_t fault_drops_ = 0;
  // Control-plane state: ctrl_gate_ is true iff any class is drained or a
  // shed policy is set (one-branch fast path for the common case).
  bool ctrl_gate_ = false;
  std::vector<std::uint8_t> class_admit_;  // empty == all classes admitted
  ShedPolicy shed_;
  std::uint64_t drain_drops_ = 0;
  std::uint64_t shed_drops_ = 0;
  bool busy_ = false;
  double busy_time_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint32_t burst_ = 1;
  // Packets on the wire and their queueing delays at this hop; burst_
  // entries each (sized at construction and by set_burst).
  std::vector<Packet> burst_buf_;
  std::vector<SimTime> burst_waits_;
  std::uint32_t burst_count_ = 0;  // packets in the burst in flight
  PacketProbe* probe_ = nullptr;
  std::uint32_t hop_ = 0;
};

}  // namespace pds
