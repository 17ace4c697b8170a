// Pareto on/off source: the classical model of traffic that is "bursty over
// a wide range of timescales" (Section 1). During an ON period the source
// emits packets back-to-back at a fixed peak rate; OFF periods are silent.
// With Pareto-distributed ON and/or OFF durations of shape 1 < alpha < 2,
// the superposition of many such sources converges to self-similar traffic
// (Willinger et al., SIGCOMM'95) — the regime the paper's schedulers must
// survive. The variance-time estimator in stats/ quantifies this.
#pragma once

#include <cstdint>
#include <optional>

#include "dsim/simulator.hpp"
#include "packet/packet.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "traffic/source.hpp"

namespace pds {

struct OnOffConfig {
  ClassId cls = 0;
  std::uint32_t packet_bytes = 500;
  double peak_rate = 10.0;       // bytes per time unit while ON
  double mean_on = 100.0;        // mean ON duration (time units)
  double mean_off = 900.0;       // mean OFF duration (time units)
  double pareto_alpha = 1.5;     // shape for both period laws
  bool pareto_off = true;        // heavy-tailed OFF periods too

  // Long-run average rate in bytes per time unit.
  double mean_rate() const {
    return peak_rate * mean_on / (mean_on + mean_off);
  }
  void validate() const;
};

class OnOffSource {
 public:
  OnOffSource(Simulator& sim, PacketIdAllocator& ids, OnOffConfig config,
              Rng rng, PacketHandler handler);

  OnOffSource(const OnOffSource&) = delete;
  OnOffSource& operator=(const OnOffSource&) = delete;

  // Starts with an OFF period beginning at `at` (a random phase).
  void start(SimTime at) { process_.start(at); }
  void stop() noexcept { process_.stop(); }

  std::uint64_t packets_emitted() const noexcept { return emitted_; }
  std::uint64_t bursts_started() const noexcept { return bursts_; }

 private:
  // kStart: the firing at start(); kOff: an OFF period just ended; kOn: a
  // burst is under way.
  enum class Phase : std::uint8_t { kStart, kOff, kOn };

  std::optional<SimTime> step(SimTime now);

  PacketIdAllocator& ids_;
  OnOffConfig config_;
  ParetoDist on_law_;
  ParetoDist off_law_;
  ExponentialDist off_exp_;
  Rng rng_;
  PacketHandler handler_;
  Phase phase_ = Phase::kStart;
  SimTime burst_end_ = 0.0;
  std::uint64_t emitted_ = 0;
  std::uint64_t bursts_ = 0;
  Process<&OnOffSource::step> process_;
};

}  // namespace pds
