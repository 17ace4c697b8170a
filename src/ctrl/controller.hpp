// Controller: a deterministic feedback loop from the live Eq. 2 monitors to
// the scheduler's knobs — adaptive differentiation toward an operator SLO.
//
// Every `period` simulation time units the controller samples the
// ConformanceMonitor's most recently closed window (the signed per-pair
// ratio errors e_c = observed/target - 1, NaN where undefined) and nudges
// one knob family with a fixed-step rule; all arithmetic is driven by
// simulation time and deterministic state, never the wall clock, so a
// controlled run stays byte-identical for any --jobs.
//
//  * kWeights — multiplicative ratio correction (motivated by the
//    DRR-parameter-optimization line of work: treat the weight vector as
//    the decision variable). The knob is the adjacent-pair weight ratio
//    r_c = w_{c+1}/w_c, seeded from the operator SDP. Each update applies
//
//        r_c <- r_c / (1 + eta * clamp(e_c, -0.5, +0.5))
//
//    (e_c > 0 means the lower class waited proportionally too long, i.e.
//    the pair was over-differentiated: shrink the ratio), clamps r_c >= 1
//    to keep the weight vector non-decreasing, rebuilds w anchored at the
//    operator's w_0, and pushes it with Scheduler::set_weights. The
//    monitor keeps scoring against the *operator* targets, so the loop
//    steers the achieved ratios toward the SLO rather than chasing its own
//    tail.
//  * kHpdG — deadband step on HPD's blend parameter: when the worst
//    defined |e_c| exceeds `slo`, step g up by g_step toward pure WTP
//    (better short-timescale conformance); when it is below slo/2, relax g
//    down by g_step (toward PAD's long-term accuracy); otherwise hold.
//    g stays in [g_min, g_max]. Skipped while the link runs a non-HPD
//    scheduler (e.g. after a swap episode).
//
// A tick only acts when the monitor has closed a new window since the last
// tick (the error signal is otherwise stale), so `period` is naturally
// chosen >= the monitor's tau.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "obs/conformance.hpp"
#include "sched/link.hpp"

namespace pds {

enum class ControllerMode { kOff, kWeights, kHpdG };

// "off", "weights", "hpd-g".
std::string to_string(ControllerMode mode);
// Parses the names above; throws std::invalid_argument on unknown names.
ControllerMode controller_mode_from_string(const std::string& name);

struct ControllerConfig {
  ControllerMode mode = ControllerMode::kOff;
  SimTime period = 0.0;  // sampling period; required > 0 when enabled
  double slo = 0.10;     // target band for the worst |e_c| (both modes)
  double eta = 0.5;      // kWeights: multiplicative gain
  double g_step = 0.05;  // kHpdG: additive step
  double g_min = 0.05;
  double g_max = 1.0;

  bool enabled() const noexcept { return mode != ControllerMode::kOff; }

  // Throws std::invalid_argument on malformed parameters when enabled().
  void validate() const;
};

class Controller {
 public:
  // `monitor` must be enabled and outlive the run; `operator_sdp` seeds the
  // weight knobs and is the SLO the monitor keeps scoring against.
  Controller(Simulator& sim, Link& link, const ConformanceMonitor& monitor,
             std::vector<double> operator_sdp, ControllerConfig config);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Starts the "ctrl.tick" chain at period, 2*period, ... <= until. Call
  // exactly once, before running the simulator.
  void arm(SimTime until);

  const ControllerConfig& config() const noexcept { return config_; }
  std::uint64_t ticks() const noexcept { return ticks_; }
  std::uint64_t updates() const noexcept { return updates_; }

  // Current knob state: the weight vector last pushed (equal to the
  // operator SDP until the first kWeights update) and the g last pushed
  // (0 until the first kHpdG update).
  const std::vector<double>& weights() const noexcept { return weights_; }
  double g() const noexcept { return g_; }

 private:
  std::optional<SimTime> tick(SimTime now);
  void tick_weights();
  void tick_hpd_g();

  Simulator& sim_;
  Link& link_;
  const ConformanceMonitor& monitor_;
  ControllerConfig config_;
  std::vector<double> operator_sdp_;
  std::vector<double> ratios_;   // knob: r_c = w_{c+1}/w_c
  std::vector<double> weights_;  // last pushed weight vector
  double g_ = 0.0;
  std::uint64_t last_windows_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t updates_ = 0;
  SimTime until_ = 0.0;
  Process<&Controller::tick> ticker_;
};

}  // namespace pds
