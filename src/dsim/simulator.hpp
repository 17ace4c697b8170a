// Discrete-event simulation kernel.
//
// A Simulator owns a time-ordered event queue and a clock. Events are
// arbitrary callables scheduled at absolute or relative times; events with
// equal timestamps fire in FIFO scheduling order (stable tie-break via a
// monotone sequence number), which the schedulers rely on for deterministic
// replay across runs with the same seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

#include "dsim/event_queue.hpp"
#include "dsim/sim_event.hpp"
#include "dsim/time.hpp"
#include "util/contracts.hpp"

namespace pds {

// Thrown by run()/run_until() when a run budget (see Simulator::set_budget)
// is exhausted. The simulator is left in a consistent state: the clock sits
// at the last executed event and no pending event has been lost, so the
// caller may inspect the wreck (or even clear the budget and resume). The
// exp-layer Watchdog converts this into a WatchdogError carrying a fuller
// diagnostic snapshot.
class SimBudgetExceeded : public std::runtime_error {
 public:
  SimBudgetExceeded(const std::string& message, SimTime trip_now,
                    std::uint64_t trip_executed, std::size_t trip_pending)
      : std::runtime_error(message),
        now(trip_now),
        executed(trip_executed),
        pending(trip_pending) {}

  SimTime now;             // clock when the budget tripped
  std::uint64_t executed;  // events executed in the tripping run call
  std::size_t pending;     // pending events (heap and lanes) at the trip
};

// Kernel-level observer invoked around every executed event. The profiler in
// obs/profiler.hpp is the canonical implementation; the hook is defined here
// so the kernel stays free of higher-layer dependencies. Implementations must
// not schedule events or mutate the simulator from inside the callbacks.
class SimMonitor {
 public:
  virtual ~SimMonitor() = default;

  // Fired after the clock advanced to the event's time, before the action
  // runs. `pending` is the queue size excluding the event being executed.
  virtual void on_event_begin(SimTime now, const char* label,
                              std::size_t pending) noexcept = 0;

  // Fired after the action returned (labels match on_event_begin pairwise;
  // events never nest — drain is not reentrant).
  virtual void on_event_end(SimTime now, const char* label) noexcept = 0;
};

class Simulator {
 public:
  // Events are SimEvents: move-only, small-buffer callables (any callable
  // up to SimEvent::kInlineCapacity bytes schedules without touching the
  // heap; closures may own their captures by move). See dsim/sim_event.hpp.
  using Action = SimEvent;

  // The pending-event set is a binary heap with delay lanes, held by value
  // (see dsim/event_queue.hpp): no virtual dispatch and no pointer
  // indirection on the per-event path. The ignored EventQueueKind
  // parameter exists only for perfbench/traced.cpp, which passes
  // StudyAConfig::event_queue.
  explicit Simulator(EventQueueKind = EventQueueKind::kBinaryHeap) {}

  // Non-copyable: scheduled actions capture `this` of client objects.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  // Schedules `action` at absolute time `t >= now()`. Throws
  // std::invalid_argument if `t` is in the past.
  //
  // Scheduling at exactly now() — including from inside a running event —
  // is guaranteed to (a) never throw and (b) preserve FIFO order: the new
  // event receives the next sequence number, so among all events with equal
  // timestamps it fires after every previously scheduled one, during the
  // current run (even when `t` equals a `run_until` horizon).
  //
  // `label` is an optional profiling category for the SimMonitor hook; it
  // must be a literal / static string (the event stores the pointer). A
  // non-null `label` overrides any label the SimEvent already carries.
  void schedule_at(SimTime t, Action action, const char* label = nullptr);

  // Schedules `action` `dt >= 0` after the current time. Events scheduled
  // the same `dt` ahead may skip the heap through a delay lane; the firing
  // order is the same as schedule_at(now() + dt, ...) would give.
  void schedule_in(SimTime dt, Action action, const char* label = nullptr);

  // Runs events until the queue is empty, `run_until` horizon is reached, or
  // stop() is called. Events exactly at the horizon still fire. When the
  // horizon is reached normally the clock advances to it; when stop() ended
  // the run early the clock stays at the last executed event so pending
  // events are still in the future and a later run resumes cleanly.
  void run();
  void run_until(SimTime t_end);

  // Requests that the run loop exits after the current event returns.
  void stop() noexcept { stopped_ = true; }

  // Run-budget watchdog hook. When armed, every run()/run_until() call
  // throws SimBudgetExceeded once it has executed more than `max_events`
  // events (0 = unlimited; deterministic — it trips at the same event on
  // every run) or once `max_wall_seconds` of real time have elapsed since
  // the run call started (0 = unlimited; checked every few thousand events,
  // so it only catches real hangs and never perturbs event order). The
  // budget applies to each run call independently and stays armed until
  // cleared.
  void set_budget(std::uint64_t max_events,
                  double max_wall_seconds = 0.0) noexcept {
    budget_events_ = max_events;
    budget_wall_seconds_ = max_wall_seconds;
  }
  void clear_budget() noexcept { set_budget(0, 0.0); }
  bool has_budget() const noexcept {
    return budget_events_ > 0 || budget_wall_seconds_ > 0.0;
  }

  // Installs (or clears, with nullptr) the kernel observer invoked around
  // every event; see SimMonitor. The monitor must outlive the run.
  void set_monitor(SimMonitor* monitor) noexcept { monitor_ = monitor; }
  SimMonitor* monitor() const noexcept { return monitor_; }

  bool empty() const noexcept { return events_.empty(); }
  std::size_t pending_events() const noexcept { return events_.size(); }
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  // kInclusive: events at exactly the horizon fire and the clock advances to
  // the horizon on a normal exit (run_until).
  enum class DrainBound : std::uint8_t { kNone, kInclusive };

  void drain(SimTime horizon, DrainBound bound);

  HeapEventQueue events_;
  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  SimMonitor* monitor_ = nullptr;
  std::uint64_t budget_events_ = 0;     // 0 = unlimited
  double budget_wall_seconds_ = 0.0;    // 0 = unlimited
};

// One self-rearming chain of events: the mechanism behind every traffic
// source, the metrics ticker and the controller's tick.
//
// The owner holds a Process<&Owner::step> as a member, constructed with its
// `this`, where `std::optional<SimTime> Owner::step(SimTime now)` is its
// rule for one firing: it receives the firing time and returns the delay
// to the next firing, or std::nullopt to end the chain. start(at)
// schedules the first firing. stop() ends the chain, and so does
// destroying the handle, so destroying the owner stops it before the step
// can run again: the pending firing then runs nothing and schedules
// nothing. The owner must not be destroyed from inside its own step.
//
// The pending event owns one reference to the chain's shared state and
// moves it into the next event it schedules. That capture is 16 bytes and
// relocates by memcpy (SimEvent::TrustedRelocation), so a firing allocates
// nothing and touches no reference count. The step is a template argument
// rather than a stored callable, so a firing calls it directly: behind a
// std::function the packet pipeline benchmark lost about 3% (see
// EXPERIMENTS.md, "One event chain").
template <auto Step>
class Process;

template <typename Owner, std::optional<SimTime> (Owner::*Step)(SimTime)>
class Process<Step> {
 public:
  // `label` is the chain's profiling category (a static string; see
  // Simulator::schedule_at).
  Process(Simulator& sim, const char* label, Owner* owner)
      : state_(std::make_shared<State>(State{sim, label, owner})) {}
  ~Process() { stop(); }

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Schedules the first firing at absolute time `at`. Throws
  // std::invalid_argument on a second call.
  void start(SimTime at) {
    PDS_CHECK(!state_->started, "process already started");
    state_->started = true;
    schedule(state_, at);
  }

  void stop() noexcept { state_->stopped = true; }

 private:
  struct State {
    Simulator& sim;
    const char* label;
    Owner* owner;
    bool started = false;
    bool stopped = false;
  };

  // The one rearm site. Hoisting `sim` and `label` out of `st` is required:
  // the capture below may move `st` before the call's object expression and
  // arguments are evaluated.
  static void schedule(std::shared_ptr<State> st, SimTime at) {
    Simulator& sim = st->sim;
    const char* label = st->label;
    sim.schedule_at(at,
                    SimEvent(SimEvent::TrustedRelocation{},
                             [st = std::move(st)]() mutable {
                               fire(std::move(st));
                             }),
                    label);
  }

  static void fire(std::shared_ptr<State> st) {
    if (st->stopped) return;
    const SimTime now = st->sim.now();
    const std::optional<SimTime> delay = (st->owner->*Step)(now);
    if (!delay || st->stopped) return;
    schedule(std::move(st), now + *delay);
  }

  std::shared_ptr<State> state_;
};

}  // namespace pds
