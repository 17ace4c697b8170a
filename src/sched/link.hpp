// Output link: the transmission server wrapped around a scheduler.
//
// The Link models one output port of a router: packets arrive, are handed to
// the scheduler, and whenever the transmitter is idle the scheduler's choice
// is transmitted at the link capacity, one decision and one packet at a
// time. The per-hop *queueing delay* of a packet — the metric every
// experiment in the paper reports — is the time from arrival to the start
// of its transmission; the departure handler fires when the last byte
// leaves (which is when the packet reaches the next hop).
//
// By default the link is lossless (unbounded buffers), matching the paper's
// Section 3 operating assumption of ECN-regulated sources in the stable
// region. set_buffer gives it a finite shared buffer with a drop policy —
// the coupled delay+loss differentiation the paper names as future work —
// which only changes which arrivals the server admits. The other drops are
// scripted: fault injection (src/fault/ — an outage in drop-on-down mode
// discards arrivals, counted in fault_drops(); a loss burst on a buffered
// link, counted in burst_drops()) and the control plane (src/ctrl/ — class
// drains and the overload shed guard discard arrivals, counted in
// drain_drops()/shed_drops()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dropper/plr_dropper.hpp"
#include "dsim/simulator.hpp"
#include "rng/rng.hpp"
#include "sched/scheduler.hpp"

namespace pds {

// What a buffered link (Link::set_buffer) does with an arrival that would
// exceed its buffer:
//  * kDropIncoming (drop-tail baseline): the arriving packet is discarded.
//  * kPlr: the PLR dropper picks a victim class; the victim's most recent
//    packet is pushed out and the arrival is admitted. (If the arriving
//    packet's own class is chosen and it has no queued packets, the arrival
//    itself is the victim.)
enum class DropPolicy {
  kDropIncoming,
  kPlr,
};

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

  // Counts the arrival, applies the buffer's admission (when set_buffer was
  // called), then hands the packet to the scheduler at the current
  // simulation time and starts transmitting if the line is idle.
  void arrive(Packet p);

  // --- Finite buffer (the loss-differentiation extension) ----------------

  // Caps the total queued packets at `buffer_packets` (the packets on the
  // wire do not count against the buffer) under `policy`. `plr` must be
  // non-null iff policy is kPlr; its class count must match the
  // scheduler's, and kPlr rejects a tag scheduler (FCFS, SCFQ, VC), which
  // cannot drop a queued packet. Call at most once, before the first
  // arrival.
  void set_buffer(std::uint64_t buffer_packets,
                  DropPolicy policy = DropPolicy::kDropIncoming,
                  std::unique_ptr<PlrDropper> plr = nullptr);
  bool has_buffer() const noexcept { return buffer_packets_ != 0; }

  // Per-class arrivals (every link counts them) and drop-policy drops (zero
  // on a link without a buffer).
  std::uint64_t arrivals(ClassId cls) const;
  std::uint64_t drops(ClassId cls) const;
  double loss_rate(ClassId cls) const;

  double capacity() const noexcept { return capacity_; }
  bool busy() const noexcept { return busy_; }

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

  // Bursty loss episodes, on buffered links only. While active, every
  // arrival is independently dropped with probability `rate` before any
  // buffer/policy logic, using the (deterministically seeded) generator
  // handed in by the fault injector. Burst drops are NOT counted in
  // drops()/loss_rate() — those track the drop *policy* under test — but
  // they do fire the probe's on_drop and the burst_drops() counter.
  void set_burst_loss(double rate, Rng rng);
  void clear_burst_loss() noexcept { burst_rate_ = 0.0; }
  bool burst_loss_active() const noexcept { return burst_rate_ > 0.0; }
  std::uint64_t burst_drops() const noexcept { return burst_drops_; }

  // --- Control plane (driven by ctrl/ControlInjector) --------------------

  // Called for every arrival dropped by a class drain or the shed guard.
  using ControlDropHandler =
      std::function<void(const Packet&, ControlDropKind, SimTime now)>;

  // Live scheduler swap: replaces the scheduler serving this link. The
  // caller must have handed the old scheduler's backlog to `sched` first
  // (ClassBasedScheduler::release_backlog/adopt_backlog); the class counts
  // must match, and a PLR-buffered link refuses a tag scheduler. Safe while
  // a packet is on the wire — that packet rides in the Link, not the
  // scheduler. The probe is re-attached so enqueue events keep the hop.
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
  // on_depart (end of transmission), and exactly one on_drop per lost
  // packet. A packet the buffer or a loss burst drops — the arrival itself
  // or a pushed-out queued one — gets an on_drop and no on_arrive.
  // Attaching here also attaches to the scheduler so its on_enqueue events
  // carry the same hop.
  void set_probe(PacketProbe* probe, std::uint32_t hop = 0) noexcept {
    probe_ = probe;
    hop_ = hop;
    sched_->set_probe(probe, hop);
  }

 private:
  void try_start_service();
  // The one transmit path: one scheduler decision puts one packet in
  // in_flight_, and one completion event delivers it. The event captures
  // only `this` and the packet rides in the Link, so a transmission
  // performs no heap allocation.
  void start_transmission();
  void complete_transmission();

  ProbeContext probe_context(ClassId cls) const;

  // Burst loss and the buffer's admission for one arrival on a buffered
  // link; counts and reports every drop. Returns false when the arrival
  // itself is dropped.
  bool admit_to_buffer(const Packet& p);

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
  // The packet on the wire and its queueing delay at this hop.
  Packet in_flight_;
  SimTime in_flight_wait_ = 0.0;
  PacketProbe* probe_ = nullptr;
  std::uint32_t hop_ = 0;
  // Admission state, kept after the transmit state so the fields the
  // transmit loop reads stay packed together. arrivals_ and drops_ hold one
  // counter per class on every link.
  std::vector<std::uint64_t> arrivals_;
  std::vector<std::uint64_t> drops_;
  std::uint64_t buffer_packets_ = 0;  // 0 = unbounded (no buffer)
  DropPolicy policy_ = DropPolicy::kDropIncoming;
  std::unique_ptr<PlrDropper> plr_;
  std::vector<bool> backlogged_;  // PLR victim-pick scratch, reused
  double burst_rate_ = 0.0;       // 0 = no burst-loss episode active
  Rng burst_rng_;
  std::uint64_t burst_drops_ = 0;
};

}  // namespace pds
