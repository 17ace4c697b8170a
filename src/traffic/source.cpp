#include "traffic/source.hpp"

#include <utility>

#include "packet/size_law.hpp"
#include "util/contracts.hpp"

namespace pds {

GapSampler pareto_gaps(double alpha, double mean) {
  const ParetoDist d = ParetoDist::with_mean(alpha, mean);
  return [d](Rng& rng) { return d.sample(rng); };
}

GapSampler exponential_gaps(double mean) {
  const ExponentialDist d(mean);
  return [d](Rng& rng) { return d.sample(rng); };
}

GapSampler constant_gaps(double gap) {
  PDS_CHECK(gap > 0.0, "gap must be positive");
  return [gap](Rng&) { return gap; };
}

SizeSampler fixed_size(std::uint32_t bytes) {
  PDS_CHECK(bytes > 0, "packet size must be positive");
  return [bytes](Rng&) { return bytes; };
}

SizeSampler law_size(DiscreteDist law) {
  return [law = std::move(law)](Rng& rng) {
    return sample_size_bytes(law, rng);
  };
}

RenewalSource::RenewalSource(Simulator& sim, PacketIdAllocator& ids,
                             ClassId cls, GapSampler gaps, SizeSampler sizes,
                             Rng rng, PacketHandler handler)
    : ids_(ids),
      cls_(cls),
      gaps_(std::move(gaps)),
      sizes_(std::move(sizes)),
      rng_(rng),
      handler_(std::move(handler)),
      process_(sim, "traffic.source", this) {
  PDS_CHECK(static_cast<bool>(gaps_), "null gap sampler");
  PDS_CHECK(static_cast<bool>(sizes_), "null size sampler");
  PDS_CHECK(static_cast<bool>(handler_), "null packet handler");
}

// The firing at start() only draws the phase gap; every later one emits.
std::optional<SimTime> RenewalSource::step(SimTime now) {
  if (primed_) {
    Packet p;
    p.id = ids_.next();
    p.cls = cls_;
    p.size_bytes = sizes_(rng_);
    p.created = now;
    handler_(std::move(p));
    ++emitted_;
  }
  primed_ = true;
  const double gap = gaps_(rng_);
  PDS_REQUIRE(gap > 0.0);
  return gap;
}

ClassMixSource::ClassMixSource(Simulator& sim, PacketIdAllocator& ids,
                               std::vector<double> class_fractions,
                               GapSampler gaps, SizeSampler sizes, Rng rng,
                               PacketHandler handler)
    : ids_(ids),
      gaps_(std::move(gaps)),
      sizes_(std::move(sizes)),
      rng_(rng),
      handler_(std::move(handler)),
      process_(sim, "traffic.source", this) {
  PDS_CHECK(!class_fractions.empty(), "need at least one class fraction");
  double total = 0.0;
  for (const double f : class_fractions) {
    PDS_CHECK(f >= 0.0, "negative class fraction");
    total += f;
  }
  PDS_CHECK(total > 0.0, "all class fractions are zero");
  double cum = 0.0;
  for (const double f : class_fractions) {
    cum += f / total;
    cumulative_.push_back(cum);
  }
  cumulative_.back() = 1.0;
  PDS_CHECK(static_cast<bool>(gaps_), "null gap sampler");
  PDS_CHECK(static_cast<bool>(sizes_), "null size sampler");
  PDS_CHECK(static_cast<bool>(handler_), "null packet handler");
}

ClassId ClassMixSource::draw_class() {
  const double u = rng_.uniform01();
  for (std::size_t c = 0; c < cumulative_.size(); ++c) {
    if (u < cumulative_[c]) return static_cast<ClassId>(c);
  }
  return static_cast<ClassId>(cumulative_.size() - 1);
}

// As RenewalSource::step, with the class drawn per packet.
std::optional<SimTime> ClassMixSource::step(SimTime now) {
  if (primed_) {
    Packet p;
    p.id = ids_.next();
    p.cls = draw_class();
    p.size_bytes = sizes_(rng_);
    p.created = now;
    handler_(std::move(p));
    ++emitted_;
  }
  primed_ = true;
  const double gap = gaps_(rng_);
  PDS_REQUIRE(gap > 0.0);
  return gap;
}

CbrFlowSource::CbrFlowSource(Simulator& sim, PacketIdAllocator& ids,
                             ClassId cls, FlowId flow, std::uint32_t count,
                             std::uint32_t size_bytes, SimTime interval,
                             PacketHandler handler)
    : ids_(ids),
      cls_(cls),
      flow_(flow),
      count_(count),
      size_bytes_(size_bytes),
      interval_(interval),
      handler_(std::move(handler)),
      process_(sim, "traffic.cbr", this) {
  PDS_CHECK(count > 0, "flow needs at least one packet");
  PDS_CHECK(size_bytes > 0, "packet size must be positive");
  PDS_CHECK(interval > 0.0, "interval must be positive");
  PDS_CHECK(static_cast<bool>(handler_), "null packet handler");
}

std::optional<SimTime> CbrFlowSource::step(SimTime now) {
  Packet p;
  p.id = ids_.next();
  p.cls = cls_;
  p.flow = flow_;
  p.size_bytes = size_bytes_;
  p.created = now;
  handler_(std::move(p));
  ++emitted_;
  if (finished()) return std::nullopt;
  return interval_;
}

}  // namespace pds
