#include "ctrl/control_injector.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sched/pad.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

constexpr PlanTrack kControlTrack{"control plan", "ctrl.begin", "ctrl.end",
                                  "ctrl.apply", "ctrl", kSpanCtrlTid};

}  // namespace

ControlInjector::ControlInjector(Simulator& sim, ControlPlan plan)
    : sim_(sim), plan_(std::move(plan)), engine_(sim, kControlTrack) {
  for (const ControlEpisode& ep : plan_.episodes) {
    engine_.add_episode(ep, to_string(ep.kind),
                        ep.kind == ControlKind::kSwap
                            ? ",\"sched\":" + Json(to_string(ep.sched)).dump()
                            : "");
  }
}

void ControlInjector::attach(const std::string& name, Link& link,
                             SchedulerKind kind,
                             const SchedulerConfig& config) {
  PDS_CHECK(config.num_classes() == link.scheduler().num_classes(),
            "config/scheduler class count mismatch");
  engine_.attach(name);
  targets_.push_back(Target{&link, kind, config});
}

void ControlInjector::arm() {
  engine_.expand();
  replacements_.resize(engine_.instances().size());
  for (std::size_t t = 0; t < targets_.size(); ++t) validate_timeline(t);
  // Route control drops (drains, sheds) back through the injector so the
  // ctrl.* counters see them.
  for (Target& target : targets_) {
    target.link->set_control_drop_handler(
        [this](const Packet& p, ControlDropKind kind, SimTime) {
          note_control_drop(p, kind);
        });
  }
  engine_.schedule([this](std::size_t i) { apply(i); },
                   [this](std::size_t i) { end_shed(i); });
}

// Validates one target's episode *timeline* and pre-constructs its swap
// replacements. Kind and weights are tracked through earlier episodes so a
// `retune g=` after a `swap sched=hpd` is legal, a `retune w=` on FCFS or a
// swap away from a tag scheduler is caught here, and every replacement
// starts with the weights in force at its swap instant.
void ControlInjector::validate_timeline(std::size_t t) {
  const auto& instances = engine_.instances();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (instances[i].target == t) order.push_back(i);
  }
  const auto episode = [&](std::size_t i) -> const ControlEpisode& {
    return plan_.episodes[instances[i].episode];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return episode(a).at < episode(b).at;
                   });
  const Target& target = targets_[t];
  const std::string& name = engine_.target_name(t);
  SchedulerKind kind = target.kind;
  std::vector<double> sdp = target.config.sdp;
  double g = target.config.hpd_g;
  const std::uint32_t n = target.config.num_classes();
  for (const std::size_t i : order) {
    const ControlEpisode& ep = episode(i);
    switch (ep.kind) {
      case ControlKind::kRetune:
        if (!ep.weights.empty()) {
          if (!has_weights(kind)) {
            engine_.fail(ep.line, "retune w targets " + name + ", which runs " +
                                      to_string(kind) + " (no weights)");
          }
          if (ep.weights.size() != n) {
            engine_.fail(ep.line, "w needs " + std::to_string(n) +
                                      " values (one per class), got " +
                                      std::to_string(ep.weights.size()));
          }
          sdp = ep.weights;
        }
        if (ep.g > 0.0 && kind != SchedulerKind::kHpd) {
          engine_.fail(ep.line, "retune g targets " + name + ", which runs " +
                                    to_string(kind) + " (not hpd) at t=" +
                                    std::to_string(ep.at));
        }
        if (ep.g > 0.0) g = ep.g;
        break;
      case ControlKind::kClass:
        if (ep.cls >= n) {
          engine_.fail(ep.line, "class index " + std::to_string(ep.cls) +
                                    " out of range (target " + name +
                                    " has " + std::to_string(n) +
                                    " classes)");
        }
        break;
      case ControlKind::kSwap: {
        if (is_tag_scheduler(kind)) {
          engine_.fail(ep.line, "swap targets " + name + ", which runs " +
                                    to_string(kind) +
                                    " (not class-based) at t=" +
                                    std::to_string(ep.at));
        }
        if (ep.sched == SchedulerKind::kBpr &&
            target.config.link_capacity <= 0.0) {
          engine_.fail(ep.line, "swap to bpr needs a link capacity in the "
                                "scheduler config");
        }
        SchedulerConfig replacement_config = target.config;
        replacement_config.sdp = sdp;
        replacement_config.hpd_g = g;
        replacements_[i] = make_scheduler(ep.sched, replacement_config);
        kind = ep.sched;
        break;
      }
      case ControlKind::kShed:
        if (ep.shed.classes > n) {
          engine_.fail(ep.line, "shed classes=" +
                                    std::to_string(ep.shed.classes) +
                                    " exceeds the " + std::to_string(n) +
                                    " classes of target " + name);
        }
        break;
    }
  }
}

void ControlInjector::bind_metrics(MetricsRegistry& registry) {
  metrics_ = &registry;
  registry.counter("ctrl.episodes");
  registry.counter("ctrl.shed.drops");
  registry.counter("ctrl.drain.drops");
}

void ControlInjector::note_control_drop(const Packet& p,
                                        ControlDropKind kind) {
  if (metrics_ == nullptr) return;
  if (kind == ControlDropKind::kShed) {
    metrics_->counter("ctrl.shed.drops").inc();
    metrics_->counter("ctrl.shed.c" + std::to_string(p.cls)).inc();
  } else {
    metrics_->counter("ctrl.drain.drops").inc();
  }
}

void ControlInjector::apply(std::size_t instance) {
  const auto& inst = engine_.instances()[instance];
  const ControlEpisode& ep = plan_.episodes[inst.episode];
  Link& link = *targets_[inst.target].link;
  if (metrics_ != nullptr) metrics_->counter("ctrl.episodes").inc();
  switch (ep.kind) {
    case ControlKind::kRetune: {
      Scheduler& sched = link.scheduler_mut();
      if (!ep.weights.empty()) sched.set_weights(ep.weights);
      if (ep.g > 0.0) {
        auto* hpd = dynamic_cast<HpdScheduler*>(&sched);
        PDS_REQUIRE(hpd != nullptr);  // arm() validated the kind timeline
        hpd->set_g(ep.g);
      }
      ++retunes_;
      break;
    }
    case ControlKind::kClass:
      link.set_class_admission(ep.cls, !ep.drain);
      ++class_changes_;
      break;
    case ControlKind::kSwap: {
      auto* old_sched =
          dynamic_cast<ClassBasedScheduler*>(&link.scheduler_mut());
      PDS_REQUIRE(old_sched != nullptr);
      ClassBasedScheduler& replacement = *replacements_[instance];
      replacement.adopt_backlog(old_sched->release_backlog(), sim_.now());
      link.set_scheduler(replacement);
      ++swaps_;
      break;
    }
    case ControlKind::kShed:
      link.set_shed(ep.shed);  // lifted by end_shed at the window end
      ++sheds_;
      break;
  }
}

void ControlInjector::end_shed(std::size_t instance) {
  targets_[engine_.instances()[instance].target].link->clear_shed();
}

}  // namespace pds
