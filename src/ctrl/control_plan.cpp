#include "ctrl/control_plan.hpp"

#include <stdexcept>

namespace pds {

namespace {

const std::vector<std::string> kDirectives{"retune", "class", "swap", "shed"};

}  // namespace

std::string to_string(ControlKind kind) {
  return kDirectives.at(static_cast<std::size_t>(kind));
}

ControlPlan parse_control_plan(const std::string& text) {
  ControlPlan plan;
  plan.seed = read_plan(
      text, "control plan", kDirectives,
      [&plan](std::size_t directive, PlanEpisode head, LineOptions& opts) {
        ControlEpisode ep{std::move(head)};
        ep.kind = static_cast<ControlKind>(directive);
        switch (ep.kind) {
          case ControlKind::kRetune:
            if (!opts.has("w") && !opts.has("g")) {
              opts.fail("retune needs w=... and/or g=...");
            }
            if (opts.has("w")) {
              ep.weights = opts.weights("w");
              if (ep.weights.size() < 2) {
                opts.fail("w needs at least two values");
              }
            }
            if (opts.has("g")) {
              ep.g = opts.number("g");
              if (ep.g <= 0.0 || ep.g > 1.0) opts.fail("g must be in (0, 1]");
            }
            break;
          case ControlKind::kClass: {
            ep.drain = opts.has("drain");
            if (ep.drain == opts.has("add")) {
              opts.fail("class needs exactly one of drain=<idx> or add=<idx>");
            }
            const auto cls =
                whole_number<ClassId>(opts.number(ep.drain ? "drain" : "add"));
            if (!cls) opts.fail("class index must be a non-negative integer");
            ep.cls = *cls;
            break;
          }
          case ControlKind::kSwap: {
            const std::string sched = opts.require("sched");
            try {
              ep.sched = scheduler_kind_from_string(sched);
            } catch (const std::invalid_argument&) {
              opts.fail("unknown scheduler " + sched);
            }
            if (!can_swap_backlog(ep.sched)) {
              opts.fail("swap sched must be one of sp|wtp|bpr|additive|pad|"
                        "hpd|drr, got " + sched);
            }
            break;
          }
          case ControlKind::kShed: {
            ep.duration = opts.number("for");
            if (ep.duration <= 0.0) opts.fail("for must be positive");
            const auto watermark =
                whole_number<std::uint64_t>(opts.number("watermark"), 1);
            if (!watermark) {
              opts.fail("watermark must be >= 1 and a whole packet count");
            }
            ep.shed.watermark_packets = *watermark;
            if (opts.has("sojourn")) {
              ep.shed.sojourn = opts.number("sojourn");
              if (ep.shed.sojourn <= 0.0) opts.fail("sojourn must be positive");
            }
            if (opts.has("classes")) {
              const auto k =
                  whole_number<std::uint32_t>(opts.number("classes"), 1);
              if (!k) opts.fail("classes must be a positive integer");
              ep.shed.classes = *k;
            }
            break;
          }
        }
        plan.episodes.push_back(std::move(ep));
      });
  return plan;
}

}  // namespace pds
