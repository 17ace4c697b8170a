#include "dsim/simulator.hpp"

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "util/contracts.hpp"

namespace pds {

Simulator::Simulator(EventQueueKind queue) : events_(queue) {}

void Simulator::schedule_at(SimTime t, Action action, const char* label) {
  PDS_CHECK(t >= now_, "cannot schedule an event in the past");
  PDS_CHECK(static_cast<bool>(action), "null event action");
  if (label != nullptr) action.set_label(label);
  events_.push(EventItem{t, next_seq_++, std::move(action)});
}

void Simulator::schedule_in(SimTime dt, Action action, const char* label) {
  PDS_CHECK(dt >= 0.0, "negative delay");
  schedule_at(now_ + dt, std::move(action), label);
}

void Simulator::run() {
  drain(std::numeric_limits<SimTime>::infinity(), DrainBound::kNone);
}

void Simulator::run_until(SimTime t_end) {
  PDS_CHECK(t_end >= now_, "horizon is in the past");
  drain(t_end, DrainBound::kInclusive);
}

void Simulator::drain(SimTime horizon, DrainBound bound) {
  events_.visit([&](auto& queue) { drain_impl(queue, horizon, bound); });
}

template <typename Queue>
void Simulator::drain_impl(Queue& queue, SimTime horizon, DrainBound bound) {
  // The wall-clock half of the budget is only sampled every
  // kWallCheckPeriod events: the check never influences which events run
  // (it aborts, it does not reorder), and amortized it costs nothing.
  constexpr std::uint64_t kWallCheckPeriod = 4096;
  using WallClock = std::chrono::steady_clock;
  const bool budgeted = has_budget();
  const WallClock::time_point run_start =
      budgeted ? WallClock::now() : WallClock::time_point{};
  std::uint64_t run_executed = 0;

  stopped_ = false;
  while (!queue.empty() && !stopped_) {
    if (bound == DrainBound::kInclusive && queue.next_time() > horizon) break;
    if (budgeted) {
      if (budget_events_ > 0 && run_executed >= budget_events_) {
        throw SimBudgetExceeded(
            "event budget exceeded: " + std::to_string(run_executed) +
                " events executed in one run call (limit " +
                std::to_string(budget_events_) + ")",
            now_, run_executed, queue.size());
      }
      if (budget_wall_seconds_ > 0.0 &&
          run_executed % kWallCheckPeriod == 0) {
        const std::chrono::duration<double> elapsed =
            WallClock::now() - run_start;
        if (elapsed.count() > budget_wall_seconds_) {
          throw SimBudgetExceeded(
              "wall-clock budget exceeded: " +
                  std::to_string(elapsed.count()) + " s elapsed (limit " +
                  std::to_string(budget_wall_seconds_) + " s)",
              now_, run_executed, queue.size());
        }
      }
    }
    EventItem ev = queue.pop();
    PDS_REQUIRE(ev.time >= now_);
    now_ = ev.time;
    ++executed_;
    ++run_executed;
    if (monitor_ != nullptr) {
      monitor_->on_event_begin(now_, ev.label(), queue.size());
      ev.action();
      monitor_->on_event_end(now_, ev.label());
    } else {
      ev.action();
    }
  }
  // Advance to the horizon only on a normal run_until exit. After stop() the
  // queue may still hold events before the horizon; jumping the clock past
  // them would make them "past" events and break a subsequent run.
  if (bound == DrainBound::kInclusive && !stopped_ && now_ < horizon) {
    now_ = horizon;
  }
}

struct PeriodicProcess::State {
  Simulator& sim;
  SimTime period;
  std::function<void(SimTime)> body;
  bool cancelled = false;

  // Runs the body once and re-arms. The pending event *owns* one shared_ptr
  // reference (keeping the state alive even if the PeriodicProcess handle
  // was destroyed — destruction cancels) and moves it into the next event on
  // every rearm: after the initial schedule there is no refcount traffic and
  // no allocation per tick.
  static void fire(std::shared_ptr<State> st) {
    if (st->cancelled) return;
    st->body(st->sim.now());
    if (st->cancelled) return;
    Simulator& sim = st->sim;
    const SimTime period = st->period;
    sim.schedule_in(period,
                    SimEvent(SimEvent::TrustedRelocation{},
                             [st = std::move(st)]() mutable {
                               fire(std::move(st));
                             }, "dsim.periodic"));
  }
};

PeriodicProcess::PeriodicProcess(Simulator& sim, SimTime start, SimTime period,
                                 std::function<void(SimTime)> body)
    : state_(std::make_shared<State>(State{sim, period, std::move(body)})) {
  PDS_CHECK(period > 0.0, "period must be positive");
  PDS_CHECK(static_cast<bool>(state_->body), "null process body");
  sim.schedule_at(start,
                  SimEvent(SimEvent::TrustedRelocation{},
                           [st = state_]() mutable { State::fire(std::move(st)); },
                           "dsim.periodic"));
}

PeriodicProcess::~PeriodicProcess() {
  if (state_) state_->cancelled = true;
}

void PeriodicProcess::cancel() noexcept {
  if (state_) state_->cancelled = true;
}

bool PeriodicProcess::cancelled() const noexcept {
  return !state_ || state_->cancelled;
}

}  // namespace pds
