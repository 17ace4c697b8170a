#include "traffic/ecn.hpp"

#include <algorithm>

#include "rng/distributions.hpp"
#include "util/contracts.hpp"

namespace pds {

EcnMarker::EcnMarker(std::uint64_t threshold_packets)
    : threshold_(threshold_packets) {
  PDS_CHECK(threshold_packets >= 1, "threshold must be at least 1 packet");
}

bool EcnMarker::should_mark(const Scheduler& sched) const {
  std::uint64_t total = 0;
  for (ClassId c = 0; c < sched.num_classes(); ++c) {
    total += sched.backlog_packets(c);
    if (total >= threshold_) return true;
  }
  return false;
}

void EcnSourceConfig::validate() const {
  PDS_CHECK(packet_bytes > 0, "packet size must be positive");
  PDS_CHECK(min_rate > 0.0, "min rate must be positive");
  PDS_CHECK(initial_rate >= min_rate && initial_rate <= max_rate,
            "initial rate outside [min, max]");
  PDS_CHECK(max_rate >= min_rate, "max rate below min rate");
  PDS_CHECK(additive_increase > 0.0, "additive increase must be positive");
  PDS_CHECK(multiplicative_decrease > 0.0 && multiplicative_decrease < 1.0,
            "multiplicative decrease must be in (0,1)");
}

EcnAdaptiveSource::EcnAdaptiveSource(Simulator& sim, PacketIdAllocator& ids,
                                     EcnSourceConfig config, Rng rng,
                                     PacketHandler handler)
    : ids_(ids),
      config_(config),
      rng_(rng),
      handler_(std::move(handler)),
      rate_(config.initial_rate),
      process_(sim, "traffic.ecn", this) {
  config.validate();
  PDS_CHECK(static_cast<bool>(handler_), "null packet handler");
}

// Exponential gaps with the current mean keep emissions well-behaved when
// the rate changes between packets. The firing at start() only draws the
// first gap.
std::optional<SimTime> EcnAdaptiveSource::step(SimTime now) {
  if (primed_) {
    Packet p;
    p.id = ids_.next();
    p.cls = config_.cls;
    p.size_bytes = config_.packet_bytes;
    p.created = now;
    handler_(std::move(p));
    ++emitted_;
  }
  primed_ = true;
  const double mean_gap = static_cast<double>(config_.packet_bytes) / rate_;
  return ExponentialDist(mean_gap).sample(rng_);
}

void EcnAdaptiveSource::on_feedback(bool marked) {
  if (marked) {
    ++marks_;
    rate_ *= config_.multiplicative_decrease;
  } else {
    rate_ += config_.additive_increase;
  }
  rate_ = std::clamp(rate_, config_.min_rate, config_.max_rate);
}

}  // namespace pds
