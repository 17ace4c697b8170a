// ECN-regulated adaptive sources — the operating regime Section 3 assumes.
//
// The paper's lossless, stable, high-utilization single link "can be
// achieved in practice with sources that react to the Explicit Congestion
// Notification (ECN) bit, without requiring loss-induced congestion
// control". This module supplies that substrate:
//
//  * EcnMarker: marks a packet's CE bit when the queue it joins exceeds a
//    backlog threshold (the classic DECbit/ECN instantaneous-queue rule).
//  * EcnAdaptiveSource: a rate-based AIMD sender. Every emitted packet is
//    eventually echoed back through on_feedback(marked) (the caller wires
//    departures to feedback, optionally with delay); marks multiplicatively
//    decrease the sending rate, clean echoes additively increase it.
//
// Together they keep a link near a utilization setpoint with a bounded
// queue and zero loss — verified by the ecn tests and demonstrated in the
// ecn_stability example.
#pragma once

#include <cstdint>
#include <optional>

#include "dsim/simulator.hpp"
#include "packet/packet.hpp"
#include "rng/rng.hpp"
#include "sched/scheduler.hpp"
#include "traffic/source.hpp"

namespace pds {

// Instantaneous-queue ECN marking: returns true (mark) when the total
// packet backlog of `sched` is at or above the threshold.
class EcnMarker {
 public:
  explicit EcnMarker(std::uint64_t threshold_packets);

  bool should_mark(const Scheduler& sched) const;

  std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  std::uint64_t threshold_;
};

struct EcnSourceConfig {
  ClassId cls = 0;
  std::uint32_t packet_bytes = 500;
  double initial_rate = 1.0;      // bytes per time unit
  double min_rate = 0.1;          // floor (keeps probing alive)
  double max_rate = 1e9;          // cap
  double additive_increase = 0.05;  // bytes/tu added per clean echo
  double multiplicative_decrease = 0.5;  // rate *= this on a mark

  void validate() const;
};

class EcnAdaptiveSource {
 public:
  EcnAdaptiveSource(Simulator& sim, PacketIdAllocator& ids,
                    EcnSourceConfig config, Rng rng, PacketHandler handler);

  EcnAdaptiveSource(const EcnAdaptiveSource&) = delete;
  EcnAdaptiveSource& operator=(const EcnAdaptiveSource&) = delete;

  void start(SimTime at) { process_.start(at); }
  void stop() noexcept { process_.stop(); }

  // Congestion feedback for one previously emitted packet. Marks shrink
  // the rate multiplicatively; clean echoes grow it additively.
  void on_feedback(bool marked);

  // Sending rate in bytes per time unit.
  double current_rate() const noexcept { return rate_; }
  std::uint64_t packets_emitted() const noexcept { return emitted_; }
  std::uint64_t marks_received() const noexcept { return marks_; }

 private:
  std::optional<SimTime> step(SimTime now);

  PacketIdAllocator& ids_;
  EcnSourceConfig config_;
  Rng rng_;
  PacketHandler handler_;
  double rate_;
  std::uint64_t emitted_ = 0;
  std::uint64_t marks_ = 0;
  bool primed_ = false;  // the first gap draw at start() has fired
  Process<&EcnAdaptiveSource::step> process_;
};

}  // namespace pds
