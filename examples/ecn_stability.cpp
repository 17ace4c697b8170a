// The operating regime behind Section 3's lossless model: ECN-regulated
// adaptive sources keeping a link near full utilization with a bounded
// queue and zero drops.
//
// Four AIMD sources (one per service class) send through a WTP link whose
// queue marks the ECN bit above a backlog threshold. The demo prints the
// trajectory of aggregate rate and backlog, then the per-class delay ratios
// — showing that proportional differentiation and congestion control
// compose: the classes share the same closed loop yet keep their delay
// spacing.
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "dsim/simulator.hpp"
#include "packet/size_law.hpp"
#include "sched/wtp.hpp"
#include "sched/link.hpp"
#include "stats/delay_stats.hpp"
#include "traffic/ecn.hpp"
#include "util/table.hpp"

namespace {

// Adds one row of aggregate rate and backlog to `trajectory` per `period`.
struct TrajectorySampler {
  const std::vector<std::unique_ptr<pds::EcnAdaptiveSource>>& sources;
  const pds::Scheduler& sched;
  double capacity;
  pds::SimTime period;
  pds::TablePrinter& trajectory;

  std::optional<pds::SimTime> sample(pds::SimTime now) {
    double rate = 0.0;
    for (const auto& s : sources) rate += s->current_rate();
    std::uint64_t backlog = 0;
    for (pds::ClassId q = 0; q < 4; ++q) backlog += sched.backlog_packets(q);
    trajectory.add_row({pds::TablePrinter::num(now / pds::kPUnit, 0),
                        pds::TablePrinter::num(rate / capacity),
                        std::to_string(backlog)});
    return period;
  }
};

}  // namespace

int main() {
  pds::Simulator sim;
  pds::PacketIdAllocator ids;
  pds::Rng master(23);

  pds::SchedulerConfig sc;
  sc.sdp = {1.0, 2.0, 4.0, 8.0};
  pds::WtpScheduler sched(sc);
  const double capacity = pds::kStudyACapacity;
  const pds::EcnMarker marker(40);

  const double sim_time = 4.0e5;
  const double warmup = 0.25 * sim_time;
  pds::ClassDelayStats delays(4, warmup);
  pds::Link link(sim, sched, capacity,
                 [&](pds::Packet&& p, pds::SimTime wait, pds::SimTime now) {
                   delays.record(p.cls, wait, now);
                 });

  std::vector<std::unique_ptr<pds::EcnAdaptiveSource>> sources;
  std::uint64_t max_backlog = 0;
  for (pds::ClassId c = 0; c < 4; ++c) {
    pds::EcnSourceConfig cfg;
    cfg.cls = c;
    cfg.packet_bytes = 441;
    cfg.initial_rate = 2.0;
    cfg.min_rate = 0.5;
    cfg.additive_increase = 0.15;
    sources.push_back(std::make_unique<pds::EcnAdaptiveSource>(
        sim, ids, cfg, master.split(), [&, c](pds::Packet p) {
          const bool mark = marker.should_mark(sched);
          std::uint64_t backlog = 0;
          for (pds::ClassId q = 0; q < 4; ++q) {
            backlog += sched.backlog_packets(q);
          }
          max_backlog = std::max(max_backlog, backlog);
          sources[c]->on_feedback(mark);  // zero-RTT ECN echo
          link.arrive(std::move(p));
        }));
    sources.back()->start(0.0);
  }

  // Sampled trajectory of the closed loop.
  std::cout << "ECN-regulated WTP link (marking threshold 40 packets)\n\n";
  pds::TablePrinter trajectory(
      {"time (p-units)", "aggregate rate / capacity", "backlog (pkts)"});
  TrajectorySampler sampler{sources, sched, capacity, sim_time / 8.0,
                            trajectory};
  pds::Process<&TrajectorySampler::sample> sampling(sim, "dsim.periodic",
                                                    &sampler);
  sampling.start(0.0);
  sim.run_until(sim_time);
  for (auto& s : sources) s->stop();
  trajectory.print(std::cout);

  std::cout << "\nmeasured utilization: "
            << pds::TablePrinter::num(link.busy_time() / sim_time)
            << ", peak backlog: " << max_backlog
            << " packets, drops: 0 (lossless by regulation)\n\n";

  pds::TablePrinter table({"class", "mean delay (p-units)", "ratio to next"});
  const auto ratios = delays.successive_ratios();
  for (pds::ClassId c = 0; c < 4; ++c) {
    table.add_row({std::to_string(pds::paper_class_label(c)),
                   pds::TablePrinter::num(
                       delays.of(c).mean() / pds::kPUnit, 1),
                   c < 3 ? pds::TablePrinter::num(ratios[c])
                         : std::string("-")});
  }
  table.print(std::cout);
  std::cout << "\nCongestion control keeps the link loaded and lossless"
               " (Section 3's\nassumption); WTP simultaneously keeps the"
               " class delay spacing.\n";
  return 0;
}
