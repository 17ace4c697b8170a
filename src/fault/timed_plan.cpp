#include "fault/timed_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

// A prefix wildcard ("pod0*", or the bare "*"): a trailing '*' after zero or
// more literal characters.
bool is_target_pattern(const std::string& pattern) {
  return !pattern.empty() && pattern.back() == '*';
}

}  // namespace

bool target_pattern_matches(const std::string& pattern,
                            const std::string& name) {
  if (!is_target_pattern(pattern)) return pattern == name;
  const std::size_t prefix_len = pattern.size() - 1;
  return name.compare(0, prefix_len, pattern, 0, prefix_len) == 0;
}

std::uint64_t read_plan(
    const std::string& text, const std::string& grammar,
    const std::vector<std::string>& directives,
    const std::function<void(std::size_t directive, PlanEpisode head,
                             LineOptions& opts)>& episode) {
  std::uint64_t seed = 1;
  bool saw_seed = false;
  LineLexer lexer(text, grammar);
  while (lexer.next()) {
    const auto& tokens = lexer.tokens();
    const std::string& directive = tokens[0];
    if (directive == "seed") {
      if (saw_seed) lexer.fail("duplicate seed directive");
      if (tokens.size() != 2) lexer.fail("seed takes exactly one value");
      saw_seed = true;
      const auto n = whole_number<std::uint64_t>(lexer.number(tokens[1]));
      if (!n) lexer.fail("seed must be a non-negative integer");
      seed = *n;
      continue;
    }
    const auto it = std::find(directives.begin(), directives.end(), directive);
    if (it == directives.end()) lexer.fail("unknown directive " + directive);
    if (tokens.size() < 2 || tokens[1].find('=') != std::string::npos) {
      lexer.fail(directive + " needs a target name (or *)");
    }
    PlanEpisode head;
    head.target = tokens[1];
    head.line = lexer.line_no();
    LineOptions opts(lexer, 2);
    head.at = opts.number("at");
    if (head.at < 0.0) opts.fail("at must be non-negative");
    episode(static_cast<std::size_t>(it - directives.begin()),
            std::move(head), opts);
    opts.finish();
  }
  return seed;
}

std::size_t TimedPlan::attach(const std::string& name) {
  PDS_CHECK(!armed_, "cannot attach targets after arm()");
  PDS_CHECK(!name.empty(), "target name must be non-empty");
  PDS_CHECK(name.back() != '*', "target name may not end in *");
  const std::size_t index = names_.size();
  PDS_CHECK(by_name_.emplace(name, index).second,
            std::string(track_.grammar) + ": duplicate target " + name);
  names_.push_back(name);
  return index;
}

void TimedPlan::add_episode(const PlanEpisode& episode, std::string kind,
                            std::string span_args) {
  PDS_CHECK(!armed_, "cannot add episodes after arm()");
  entries_.push_back(Entry{episode, std::move(kind), std::move(span_args)});
}

void TimedPlan::fail(std::size_t line, const std::string& msg) const {
  throw std::invalid_argument(std::string(track_.grammar) + ": line " +
                              std::to_string(line) + ": " + msg);
}

void TimedPlan::expand() {
  PDS_CHECK(!armed_, std::string(track_.grammar) + " armed twice");
  armed_ = true;

  for (std::size_t e = 0; e < entries_.size(); ++e) {
    const PlanEpisode& ep = entries_[e].episode;
    if (ep.at < sim_.now()) {
      fail(ep.line, "episode starts before the current simulation time");
    }
    if (!std::isfinite(ep.end())) fail(ep.line, "episode never ends");
    const std::size_t first = instances_.size();
    if (ep.target == "*") {
      if (by_name_.empty()) {
        fail(ep.line, "episode targets *, nothing attached");
      }
      for (const auto& [name, target] : by_name_) {
        instances_.push_back(Instance{e, target});
      }
    } else if (is_target_pattern(ep.target)) {
      for (std::size_t t = 0; t < names_.size(); ++t) {
        if (target_pattern_matches(ep.target, names_[t])) {
          instances_.push_back(Instance{e, t});
        }
      }
      if (instances_.size() == first) {
        fail(ep.line, "pattern " + ep.target + " matches no attached target");
      }
    } else {
      const auto it = by_name_.find(ep.target);
      if (it == by_name_.end()) fail(ep.line, "unknown target " + ep.target);
      instances_.push_back(Instance{e, it->second});
    }
  }

  // Overlapping boundaries would race for the same link state. Wildcards
  // may pair distant lines, so the error names both.
  for (std::size_t a = 0; a < instances_.size(); ++a) {
    for (std::size_t b = a + 1; b < instances_.size(); ++b) {
      if (instances_[a].target != instances_[b].target) continue;
      const Entry& ea = entries_[instances_[a].episode];
      const Entry& eb = entries_[instances_[b].episode];
      if (ea.kind != eb.kind) continue;
      const PlanEpisode& pa = ea.episode;
      const PlanEpisode& pb = eb.episode;
      if (pa.at == pb.at || (pa.at < pb.end() && pb.at < pa.end())) {
        throw std::invalid_argument(
            std::string(track_.grammar) + ": overlapping " + ea.kind +
            " episodes on " + names_[instances_[a].target] + " (lines " +
            std::to_string(std::min(pa.line, pb.line)) + " and " +
            std::to_string(std::max(pa.line, pb.line)) + ")");
      }
    }
  }
}

void TimedPlan::schedule(Applier on_begin, Applier on_end) {
  PDS_CHECK(armed_, "schedule() needs expand() first");
  on_begin_ = std::move(on_begin);
  on_end_ = std::move(on_end);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const PlanEpisode& ep = entries_[instances_[i].episode].episode;
    const bool windowed = ep.duration > 0.0;
    sim_.schedule_at(ep.at, SimEvent([this, i] { begin_episode(i); },
                                     windowed ? track_.begin_label
                                              : track_.apply_label));
    if (windowed) {
      sim_.schedule_at(ep.end(), SimEvent([this, i] { end_episode(i); },
                                          track_.end_label));
    }
  }
}

void TimedPlan::begin_episode(std::size_t index) {
  Instance& inst = instances_[index];
  const bool windowed = entries_[inst.episode].episode.duration > 0.0;
  ++begun_;
  inst.active = windowed;
  on_begin_(index);
  if (!windowed) {
    ++completed_;
    emit_span(inst);
  }
}

void TimedPlan::end_episode(std::size_t index) {
  Instance& inst = instances_[index];
  ++completed_;
  inst.active = false;
  emit_span(inst);
  on_end_(index);
}

std::string TimedPlan::active_summary() const {
  std::string summary;
  for (const Instance& inst : instances_) {
    if (!inst.active) continue;
    if (!summary.empty()) summary += "+";
    summary += entries_[inst.episode].kind + " " + names_[inst.target];
  }
  return summary;
}

void TimedPlan::emit_span(const Instance& inst) const {
#if PDS_OBS_ENABLED
  if (spans_ == nullptr) return;
  const Entry& entry = entries_[inst.episode];
  const PlanEpisode& ep = entry.episode;
  const std::string& target = names_[inst.target];
  spans_->emit(Span{ep.at * span_scale_, (ep.end() - ep.at) * span_scale_,
                    kSpanSimPid, track_.span_tid, entry.kind + " " + target,
                    track_.span_category,
                    "\"kind\":" + Json(entry.kind).dump() +
                        ",\"target\":" + Json(target).dump() +
                        entry.span_args});
#else
  (void)inst;
#endif
}

}  // namespace pds
