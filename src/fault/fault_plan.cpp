#include "fault/fault_plan.hpp"

namespace pds {

namespace {

const std::vector<std::string> kDirectives{"down", "degrade", "stall", "loss"};

}  // namespace

std::string to_string(FaultKind kind) {
  return kDirectives.at(static_cast<std::size_t>(kind));
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  plan.seed = read_plan(
      text, "fault plan", kDirectives,
      [&plan](std::size_t directive, PlanEpisode head, LineOptions& opts) {
        FaultEpisode ep{std::move(head)};
        ep.kind = static_cast<FaultKind>(directive);
        ep.duration = opts.number("for");
        if (ep.duration <= 0.0) opts.fail("for must be positive");
        switch (ep.kind) {
          case FaultKind::kDown: {
            const auto mode = opts.take("mode").value_or("drop");
            if (mode == "drop") {
              ep.mode = OutageMode::kDropArrivals;
            } else if (mode == "hold") {
              ep.mode = OutageMode::kHoldArrivals;
            } else {
              opts.fail("mode must be drop or hold, got " + mode);
            }
            break;
          }
          case FaultKind::kDegrade:
            ep.factor = opts.number("factor");
            if (ep.factor <= 0.0 || ep.factor >= 1.0) {
              opts.fail("factor must be in (0, 1)");
            }
            break;
          case FaultKind::kStall:
            break;
          case FaultKind::kLoss:
            ep.rate = opts.number("rate");
            if (ep.rate <= 0.0 || ep.rate > 1.0) {
              opts.fail("rate must be in (0, 1]");
            }
            break;
        }
        plan.episodes.push_back(std::move(ep));
      });
  return plan;
}

}  // namespace pds
