// Discrete-event simulation kernel.
//
// A Simulator owns a time-ordered event queue and a clock. Events are
// arbitrary callables scheduled at absolute or relative times; events with
// equal timestamps fire in FIFO scheduling order (stable tie-break via a
// monotone sequence number), which the schedulers rely on for deterministic
// replay across runs with the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "dsim/event_queue.hpp"
#include "dsim/sim_event.hpp"
#include "dsim/time.hpp"

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
  std::size_t pending;     // pending-event heap size at the trip
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

  // The pending-event set defaults to a binary heap; packet-level
  // workloads with roughly uniform event spacing can opt into the calendar
  // queue (see dsim/event_queue.hpp). Both give identical execution orders.
  // The queue is a sealed variant held by value — no virtual dispatch and
  // no pointer indirection on the per-event path.
  explicit Simulator(EventQueueKind queue = EventQueueKind::kBinaryHeap);

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

  // Schedules `action` `dt >= 0` after the current time.
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
  // The run loop, instantiated once per concrete queue type so every queue
  // operation inside it is a direct (inlinable) call. drain() dispatches on
  // the sealed EventQueue's kind exactly once per run call.
  template <typename Queue>
  void drain_impl(Queue& queue, SimTime horizon, DrainBound bound);

  EventQueue events_;
  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  SimMonitor* monitor_ = nullptr;
  std::uint64_t budget_events_ = 0;     // 0 = unlimited
  double budget_wall_seconds_ = 0.0;    // 0 = unlimited
};

// Repeatedly runs `body` every `period` time units until the simulator stops
// or `cancel()` is called. The first invocation happens at `start`.
class PeriodicProcess {
 public:
  PeriodicProcess(Simulator& sim, SimTime start, SimTime period,
                  std::function<void(SimTime)> body);
  ~PeriodicProcess();

  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void cancel() noexcept;
  bool cancelled() const noexcept;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace pds
