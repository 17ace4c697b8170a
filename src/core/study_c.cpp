#include "core/study_c.hpp"

#include <limits>
#include <memory>

#include "stats/delay_stats.hpp"
#include "traffic/calibration.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"

namespace pds {

void StudyCConfig::validate() const {
  SchedulerConfig sc{sdp, capacity, 0.875, 1500.0};
  sc.validate(/*needs_capacity=*/true);
  PDS_CHECK(load_fractions.size() == sdp.size(),
            "load fractions / SDP size mismatch");
  if (policy == DropPolicy::kPlr) {
    PDS_CHECK(ldp.size() == sdp.size(), "LDP / SDP size mismatch");
    PDS_CHECK(!is_tag_scheduler(scheduler),
              "PLR push-out needs a scheduler that can drop a queued "
              "packet, got " + to_string(scheduler));
  }
  PDS_CHECK(offered_load > 0.0, "offered load must be positive");
  PDS_CHECK(buffer_packets >= 1, "buffer must hold at least one packet");
  PDS_CHECK(packet_bytes > 0, "packet size must be positive");
  PDS_CHECK(pareto_alpha > 1.0, "Pareto shape must exceed 1");
  PDS_CHECK(sim_time > 0.0, "sim_time must be positive");
  PDS_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
            "warmup fraction must be in [0,1)");
}

StudyCResult run_study_c(const StudyCConfig& config) {
  config.validate();
  const std::uint32_t n = config.num_classes();
  const SimTime warmup = config.sim_time * config.warmup_fraction;

  Simulator sim;
  PacketIdAllocator ids;
  Rng master(config.seed);

  SchedulerConfig sched_config;
  sched_config.sdp = config.sdp;
  sched_config.link_capacity = config.capacity;
  auto scheduler = make_scheduler(config.scheduler, sched_config);

  std::unique_ptr<PlrDropper> plr;
  if (config.policy == DropPolicy::kPlr) {
    plr = std::make_unique<PlrDropper>(config.ldp, config.plr_window);
  }

  ClassDelayStats delays(n, warmup);
  Link link(sim, *scheduler, config.capacity,
            [&](Packet&& p, SimTime wait, SimTime now) {
              delays.record(p.cls, wait, now);
            });
  link.set_buffer(config.buffer_packets, config.policy, std::move(plr));

  // Per-class Pareto sources at the requested offered load (values above 1
  // are legal here — the dropper sheds the excess).
  const auto gaps = class_mean_interarrivals(
      config.offered_load, config.load_fractions, config.capacity,
      static_cast<double>(config.packet_bytes));
  std::vector<std::unique_ptr<RenewalSource>> sources;
  sources.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    sources.push_back(std::make_unique<RenewalSource>(
        sim, ids, c, pareto_gaps(config.pareto_alpha, gaps[c]),
        fixed_size(config.packet_bytes), master.split(),
        [&link](Packet p) { link.arrive(std::move(p)); }));
    sources.back()->start(kTimeZero);
  }

  sim.run_until(config.sim_time);
  for (auto& s : sources) s->stop();

  StudyCResult result;
  result.loss_rates.reserve(n);
  for (ClassId c = 0; c < n; ++c) {
    result.loss_rates.push_back(link.loss_rate(c));
    result.total_arrivals += link.arrivals(c);
    result.total_drops += link.drops(c);
  }
  for (ClassId c = 0; c + 1 < n; ++c) {
    const double hi = result.loss_rates[c + 1];
    result.loss_ratios.push_back(
        hi > 0.0 ? result.loss_rates[c] / hi
                 : std::numeric_limits<double>::infinity());
  }
  result.mean_delays = delays.means();
  result.delay_ratios = delays.successive_ratios();
  result.aggregate_loss_rate =
      result.total_arrivals > 0
          ? static_cast<double>(result.total_drops) /
                static_cast<double>(result.total_arrivals)
          : 0.0;
  result.measured_utilization = link.busy_time() / config.sim_time;
  return result;
}

}  // namespace pds
