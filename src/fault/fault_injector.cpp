#include "fault/fault_injector.hpp"

#include "obs/span.hpp"
#include "rng/rng.hpp"

namespace pds {

namespace {

constexpr PlanTrack kFaultTrack{"fault plan", "fault.begin", "fault.end",
                                "fault.apply", "fault", kSpanFaultTid};

// SplitMix64 finalizer: decorrelates (plan seed, episode index) pairs into
// independent loss-burst streams.
std::uint64_t episode_seed(std::uint64_t plan_seed, std::uint64_t index) {
  std::uint64_t z = plan_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : plan_(std::move(plan)), engine_(sim, kFaultTrack) {
  for (const FaultEpisode& ep : plan_.episodes) {
    engine_.add_episode(ep, to_string(ep.kind));
  }
}

void FaultInjector::attach(const std::string& name, Link& link) {
  engine_.attach(name);
  targets_.push_back(Target{&link, nullptr});
}

void FaultInjector::attach(const std::string& name, LossyLink& lossy) {
  engine_.attach(name);
  targets_.push_back(Target{&lossy.link_mut(), &lossy});
}

void FaultInjector::arm() {
  engine_.expand();
  for (const auto& inst : engine_.instances()) {
    const FaultEpisode& ep = plan_.episodes[inst.episode];
    if (ep.kind == FaultKind::kLoss && targets_[inst.target].lossy == nullptr) {
      engine_.fail(ep.line, "loss episode targets " +
                                engine_.target_name(inst.target) +
                                ", which is not a lossy link");
    }
  }
  engine_.schedule([this](std::size_t i) { begin(i); },
                   [this](std::size_t i) { end(i); });
}

void FaultInjector::begin(std::size_t instance) {
  const auto& inst = engine_.instances()[instance];
  const FaultEpisode& ep = plan_.episodes[inst.episode];
  const Target& target = targets_[inst.target];
  switch (ep.kind) {
    case FaultKind::kDown:
      target.link->take_down(ep.mode);
      break;
    case FaultKind::kDegrade:
      target.link->set_capacity_factor(ep.factor);
      break;
    case FaultKind::kStall:
      target.link->stall();
      break;
    case FaultKind::kLoss:
      target.lossy->set_burst_loss(
          ep.rate, Rng(episode_seed(plan_.seed,
                                    static_cast<std::uint64_t>(instance))));
      break;
  }
}

void FaultInjector::end(std::size_t instance) {
  const auto& inst = engine_.instances()[instance];
  const Target& target = targets_[inst.target];
  switch (plan_.episodes[inst.episode].kind) {
    case FaultKind::kDown:
      target.link->bring_up();
      break;
    case FaultKind::kDegrade:
      target.link->set_capacity_factor(1.0);
      break;
    case FaultKind::kStall:
      target.link->resume();
      break;
    case FaultKind::kLoss:
      target.lossy->clear_burst_loss();
      break;
  }
}

}  // namespace pds
