// Timed plans: the grammar shape and the one engine shared by fault plans
// (fault/fault_plan.hpp) and control plans (ctrl/control_plan.hpp). Both are
// line-oriented episode lists (token rules in util/line_lexer.hpp):
//
//   seed <n>                                   (optional, default 1)
//   <directive> <target> at=<t> [key=value ...]
//
// `target` is an attach name, `*` for every attached target, or a prefix
// wildcard (`pod0*`). TimedPlan owns, once for both injectors: the target
// name rules; wildcard expansion (a bare `*` in name order, since
// loss-episode seeds depend on instance order; a prefix pattern in attach
// order); the same-kind overlap rule; the boundary events, in instance order
// (begin then end for a windowed episode, one apply event for an
// instantaneous one); the counters, active flags, summary and spans.
// Arm-time errors read "<grammar>: line N: ...". Every boundary is an
// ordinary simulator event at a plan-scripted time, so a planned run
// replays byte for byte (docs/robustness.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "util/line_lexer.hpp"

namespace pds {

class SpanBuffer;

// The fields every plan episode has, whatever its kind.
struct PlanEpisode {
  std::string target;      // attach name, "*", or a prefix wildcard
  SimTime at = 0.0;
  SimTime duration = 0.0;  // 0: instantaneous, one boundary at `at`
  std::size_t line = 0;    // 1-based plan line, for arm-time diagnostics

  SimTime end() const noexcept { return at + duration; }
};

// True when `pattern` names `name` exactly or is a prefix wildcard whose
// prefix starts `name`.
bool target_pattern_matches(const std::string& pattern,
                            const std::string& name);

// Parses the shared plan shape of `text`. `grammar` names it in errors
// ("fault plan line N: ..."); `directives` are its episode directives. For
// each episode line, `episode` gets the directive's index, the parsed head
// and the line's remaining options; read_plan rejects whatever it leaves
// unread. Returns the plan seed.
std::uint64_t read_plan(
    const std::string& text, const std::string& grammar,
    const std::vector<std::string>& directives,
    const std::function<void(std::size_t directive, PlanEpisode head,
                             LineOptions& opts)>& episode);

// How one plan kind shows up outside the engine.
struct PlanTrack {
  const char* grammar;        // error prefix: "fault plan"
  const char* begin_label;    // event labels (perfbench buckets by prefix)
  const char* end_label;
  const char* apply_label;    // instantaneous episodes
  const char* span_category;  // "fault"
  std::uint32_t span_tid;     // obs/span.hpp track
};

class TimedPlan {
 public:
  // One episode on one concrete target.
  struct Instance {
    std::size_t episode = 0;  // index in add_episode order
    std::size_t target = 0;   // attach index
    bool active = false;      // between begin and end of a windowed episode
  };
  using Applier = std::function<void(std::size_t instance)>;

  TimedPlan(Simulator& sim, const PlanTrack& track)
      : sim_(sim), track_(track) {}

  TimedPlan(const TimedPlan&) = delete;
  TimedPlan& operator=(const TimedPlan&) = delete;

  // Registers a target (non-empty, unique, no trailing `*`, before
  // expand()); returns its attach index.
  std::size_t attach(const std::string& name);
  const std::string& target_name(std::size_t target) const {
    return names_[target];
  }

  // Adds the plan's next episode. `kind` is its directive name (the overlap
  // key and the span/summary name); `span_args` extends the span's args
  // (",\"sched\":\"hpd\"").
  void add_episode(const PlanEpisode& episode, std::string kind,
                   std::string span_args = "");

  // Expands every episode over the attached targets and enforces the
  // overlap rule: two episodes of one kind on one target conflict when they
  // start together or their windows intersect. Call once, no later than the
  // earliest episode.
  void expand();
  const std::vector<Instance>& instances() const noexcept {
    return instances_;
  }

  // Schedules every instance's boundaries. `on_begin(i)` runs at the
  // episode start (for an instantaneous episode it is the whole effect),
  // `on_end(i)` at a windowed episode's end. Call after expand().
  void schedule(Applier on_begin, Applier on_end);

  // Throws std::invalid_argument("<grammar>: line N: <msg>").
  [[noreturn]] void fail(std::size_t line, const std::string& msg) const;

  std::uint64_t begun() const noexcept { return begun_; }
  std::uint64_t completed() const noexcept { return completed_; }

  // "<kind> <target>" of every active episode in instance order,
  // "+"-joined ("down link+loss edge"); empty when none. Feeds
  // ConformanceMonitor::set_fault_context for violation attribution.
  std::string active_summary() const;

  // Optional span emission (obs/span.hpp): each completed episode becomes
  // one span [at, end] on the track's thread, scaled by `us_per_time_unit`.
  // Compiled out when PDS_OBS_ENABLED=0. The buffer must outlive the run.
  void set_span_buffer(SpanBuffer* buffer, double us_per_time_unit) {
    spans_ = buffer;
    span_scale_ = us_per_time_unit;
  }

 private:
  struct Entry {
    PlanEpisode episode;
    std::string kind;
    std::string span_args;
  };

  void begin_episode(std::size_t index);
  void end_episode(std::size_t index);
  void emit_span(const Instance& inst) const;

  Simulator& sim_;
  PlanTrack track_;
  std::vector<std::string> names_;               // attach order
  std::map<std::string, std::size_t> by_name_;   // name order
  std::vector<Entry> entries_;
  std::vector<Instance> instances_;
  Applier on_begin_;
  Applier on_end_;
  bool armed_ = false;
  std::uint64_t begun_ = 0;
  std::uint64_t completed_ = 0;
  SpanBuffer* spans_ = nullptr;
  double span_scale_ = 1.0;
};

}  // namespace pds
