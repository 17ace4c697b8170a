// Traffic sources.
//
// Sources are event-driven packet emitters attached to a Simulator. Each
// emitted packet is handed to a caller-supplied handler (normally
// Link::arrive). All randomness comes from a per-source Rng so sources are
// independent and runs are reproducible. Each source runs on one dsim
// Process, its event chain, and keeps only its rule for one firing;
// stop() and destroying the source end the chain.
//
// The paper's workloads:
//  * Study A: one renewal source per class with Pareto(alpha=1.9)
//    interarrivals and the three-point size law.
//  * Study B: cross-traffic sources emitting 500 B packets whose class is
//    drawn from the 40/30/20/10 mix, plus finite periodic "user flows".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dsim/simulator.hpp"
#include "packet/packet.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace pds {

// Shared per-run packet id counter so ids are unique across sources.
class PacketIdAllocator {
 public:
  std::uint64_t next() noexcept { return next_++; }

 private:
  std::uint64_t next_ = 0;
};

using PacketHandler = std::function<void(Packet)>;

// Samples successive interarrival gaps (time units) or sizes (bytes).
using GapSampler = std::function<double(Rng&)>;
using SizeSampler = std::function<std::uint32_t(Rng&)>;

// Convenience adaptors.
GapSampler pareto_gaps(double alpha, double mean);
GapSampler exponential_gaps(double mean);
GapSampler constant_gaps(double gap);
SizeSampler fixed_size(std::uint32_t bytes);
SizeSampler law_size(DiscreteDist law);

// Infinite renewal process emitting packets of one class.
class RenewalSource {
 public:
  RenewalSource(Simulator& sim, PacketIdAllocator& ids, ClassId cls,
                GapSampler gaps, SizeSampler sizes, Rng rng,
                PacketHandler handler);

  RenewalSource(const RenewalSource&) = delete;
  RenewalSource& operator=(const RenewalSource&) = delete;

  // Begins emitting; the first packet is sent one interarrival gap after
  // `at` (a phase draw, so sources started together do not align).
  void start(SimTime at) { process_.start(at); }
  void stop() noexcept { process_.stop(); }

  std::uint64_t packets_emitted() const noexcept { return emitted_; }

 private:
  std::optional<SimTime> step(SimTime now);

  PacketIdAllocator& ids_;
  ClassId cls_;
  GapSampler gaps_;
  SizeSampler sizes_;
  Rng rng_;
  PacketHandler handler_;
  std::uint64_t emitted_ = 0;
  bool primed_ = false;  // the phase draw at start() has fired
  Process<&RenewalSource::step> process_;
};

// Infinite renewal process whose packets draw their class per emission from
// a discrete mix — the paper's Study B cross-traffic sources.
class ClassMixSource {
 public:
  // `class_fractions[c]` is the probability that an emitted packet belongs
  // to class c; must sum to 1 (normalized internally).
  ClassMixSource(Simulator& sim, PacketIdAllocator& ids,
                 std::vector<double> class_fractions, GapSampler gaps,
                 SizeSampler sizes, Rng rng, PacketHandler handler);

  ClassMixSource(const ClassMixSource&) = delete;
  ClassMixSource& operator=(const ClassMixSource&) = delete;

  void start(SimTime at) { process_.start(at); }
  void stop() noexcept { process_.stop(); }

  std::uint64_t packets_emitted() const noexcept { return emitted_; }

 private:
  std::optional<SimTime> step(SimTime now);
  ClassId draw_class();

  PacketIdAllocator& ids_;
  std::vector<double> cumulative_;  // cumulative class fractions
  GapSampler gaps_;
  SizeSampler sizes_;
  Rng rng_;
  PacketHandler handler_;
  std::uint64_t emitted_ = 0;
  bool primed_ = false;  // the phase draw at start() has fired
  Process<&ClassMixSource::step> process_;
};

// Finite periodic flow: `count` packets of fixed size, one every `interval`
// time units starting at `start` — the Study B "user flows" (the periodic
// spacing is the paper's technicality ensuring the per-class twin flows
// inject packets at identical instants).
class CbrFlowSource {
 public:
  CbrFlowSource(Simulator& sim, PacketIdAllocator& ids, ClassId cls,
                FlowId flow, std::uint32_t count, std::uint32_t size_bytes,
                SimTime interval, PacketHandler handler);

  CbrFlowSource(const CbrFlowSource&) = delete;
  CbrFlowSource& operator=(const CbrFlowSource&) = delete;

  void start(SimTime at) { process_.start(at); }

  std::uint64_t packets_emitted() const noexcept { return emitted_; }
  bool finished() const noexcept { return emitted_ >= count_; }

 private:
  std::optional<SimTime> step(SimTime now);

  PacketIdAllocator& ids_;
  ClassId cls_;
  FlowId flow_;
  std::uint32_t count_;
  std::uint32_t size_bytes_;
  SimTime interval_;
  PacketHandler handler_;
  std::uint64_t emitted_ = 0;
  Process<&CbrFlowSource::step> process_;
};

}  // namespace pds
