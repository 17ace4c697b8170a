#include "traffic/onoff.hpp"

#include "util/contracts.hpp"

namespace pds {

void OnOffConfig::validate() const {
  PDS_CHECK(packet_bytes > 0, "packet size must be positive");
  PDS_CHECK(peak_rate > 0.0, "peak rate must be positive");
  PDS_CHECK(mean_on > 0.0 && mean_off > 0.0, "period means must be positive");
  PDS_CHECK(pareto_alpha > 1.0, "Pareto shape must exceed 1 (finite mean)");
  // An ON period must fit at least one packet on average.
  PDS_CHECK(mean_on * peak_rate >= static_cast<double>(packet_bytes),
            "mean ON period shorter than one packet");
}

OnOffSource::OnOffSource(Simulator& sim, PacketIdAllocator& ids,
                         OnOffConfig config, Rng rng, PacketHandler handler)
    : ids_(ids),
      config_(config),
      on_law_(ParetoDist::with_mean(config.pareto_alpha, config.mean_on)),
      off_law_(ParetoDist::with_mean(config.pareto_alpha, config.mean_off)),
      off_exp_(config.mean_off),
      rng_(rng),
      handler_(std::move(handler)),
      process_(sim, "traffic.onoff", this) {
  config.validate();
  PDS_CHECK(static_cast<bool>(handler_), "null packet handler");
}

// An OFF period that ends opens a burst, drawing its ON length. Each burst
// firing emits one packet and rearms one serialization time later at the
// peak rate while that still fits the burst; otherwise it draws the next
// OFF period, as does the firing at start().
std::optional<SimTime> OnOffSource::step(SimTime now) {
  if (phase_ == Phase::kOff) {
    ++bursts_;
    burst_end_ = now + on_law_.sample(rng_);
    phase_ = Phase::kOn;
  }
  if (phase_ == Phase::kOn) {
    Packet p;
    p.id = ids_.next();
    p.cls = config_.cls;
    p.size_bytes = config_.packet_bytes;
    p.created = now;
    handler_(std::move(p));
    ++emitted_;
    const double gap =
        static_cast<double>(config_.packet_bytes) / config_.peak_rate;
    if (now + gap <= burst_end_) return gap;
  }
  phase_ = Phase::kOff;
  return config_.pareto_off ? off_law_.sample(rng_) : off_exp_.sample(rng_);
}

}  // namespace pds
