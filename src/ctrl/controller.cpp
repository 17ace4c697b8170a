#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sched/pad.hpp"
#include "util/contracts.hpp"

namespace pds {

std::string to_string(ControllerMode mode) {
  switch (mode) {
    case ControllerMode::kOff: return "off";
    case ControllerMode::kWeights: return "weights";
    case ControllerMode::kHpdG: return "hpd-g";
  }
  return "?";
}

ControllerMode controller_mode_from_string(const std::string& name) {
  if (name == "off") return ControllerMode::kOff;
  if (name == "weights") return ControllerMode::kWeights;
  if (name == "hpd-g") return ControllerMode::kHpdG;
  throw std::invalid_argument("unknown controller mode: " + name);
}

void ControllerConfig::validate() const {
  if (!enabled()) return;
  PDS_CHECK(period > 0.0, "controller period must be positive");
  PDS_CHECK(slo > 0.0, "controller slo must be positive");
  PDS_CHECK(eta > 0.0, "controller eta must be positive");
  PDS_CHECK(g_step > 0.0, "controller g_step must be positive");
  PDS_CHECK(g_min > 0.0 && g_min <= g_max && g_max <= 1.0,
            "controller g bounds must satisfy 0 < g_min <= g_max <= 1");
}

Controller::Controller(Simulator& sim, Link& link,
                       const ConformanceMonitor& monitor,
                       std::vector<double> operator_sdp,
                       ControllerConfig config)
    : sim_(sim),
      link_(link),
      monitor_(monitor),
      config_(config),
      operator_sdp_(std::move(operator_sdp)),
      ticker_(sim, "ctrl.tick", this) {
  config_.validate();
  PDS_CHECK(!config_.enabled() || monitor_.enabled(),
            "controller needs an enabled conformance monitor");
  PDS_CHECK(operator_sdp_.size() >= 2, "controller needs at least 2 classes");
  ratios_.reserve(operator_sdp_.size() - 1);
  for (std::size_t c = 0; c + 1 < operator_sdp_.size(); ++c) {
    PDS_CHECK(operator_sdp_[c] > 0.0, "operator SDPs must be positive");
    ratios_.push_back(operator_sdp_[c + 1] / operator_sdp_[c]);
  }
  weights_ = operator_sdp_;
}

void Controller::arm(SimTime until) {
  if (!config_.enabled()) return;
  const SimTime first = sim_.now() + config_.period;
  if (first > until) return;
  until_ = until;
  ticker_.start(first);
}

std::optional<SimTime> Controller::tick(SimTime now) {
  ++ticks_;
  // Only act on fresh evidence: the monitor closes windows lazily on
  // departures, so a tick may land before the window covering it closed.
  const std::uint64_t windows = monitor_.windows_closed();
  if (windows > last_windows_) {
    last_windows_ = windows;
    if (config_.mode == ControllerMode::kWeights) {
      tick_weights();
    } else {
      tick_hpd_g();
    }
  }
  if (now + config_.period > until_) return std::nullopt;
  return config_.period;
}

void Controller::tick_weights() {
  const std::vector<double>& errors = monitor_.last_window_errors();
  PDS_REQUIRE(errors.size() == ratios_.size());
  bool changed = false;
  for (std::size_t c = 0; c < ratios_.size(); ++c) {
    const double e = errors[c];
    if (std::isnan(e) || e == 0.0) continue;
    const double step = std::clamp(e, -0.5, 0.5);
    const double next = std::max(1.0, ratios_[c] / (1.0 + config_.eta * step));
    if (next != ratios_[c]) {
      ratios_[c] = next;
      changed = true;
    }
  }
  if (!changed) return;
  std::vector<double> w(operator_sdp_.size());
  w[0] = operator_sdp_[0];
  for (std::size_t c = 0; c + 1 < w.size(); ++c) {
    w[c + 1] = w[c] * ratios_[c];
  }
  link_.scheduler_mut().set_weights(w);
  weights_ = std::move(w);
  ++updates_;
}

void Controller::tick_hpd_g() {
  auto* hpd = dynamic_cast<HpdScheduler*>(&link_.scheduler_mut());
  if (hpd == nullptr) return;  // swapped away from HPD; nothing to steer
  const std::vector<double>& errors = monitor_.last_window_errors();
  double worst = -1.0;
  for (const double e : errors) {
    if (!std::isnan(e)) worst = std::max(worst, std::fabs(e));
  }
  if (worst < 0.0) return;  // no defined pair in the last window
  const double g = hpd->g();
  double next = g;
  if (worst > config_.slo) {
    next = std::min(config_.g_max, g + config_.g_step);
  } else if (worst < 0.5 * config_.slo) {
    next = std::max(config_.g_min, g - config_.g_step);
  }
  if (next == g) return;
  hpd->set_g(next);
  g_ = next;
  ++updates_;
}

}  // namespace pds
