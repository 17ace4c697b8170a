#include "net/study_b.hpp"

#include <algorithm>
#include <memory>

#include "net/topology.hpp"
#include "stats/percentile.hpp"
#include "stats/running_stats.hpp"
#include "traffic/source.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {
// Higher-class delays this close to zero are excluded from ratio terms.
constexpr double kMinDenominatorSeconds = 1e-9;
}  // namespace

const std::vector<double>& study_b_percentiles() {
  static const std::vector<double> kPs{10, 20, 30, 40, 50,
                                       60, 70, 80, 90, 99};
  return kPs;
}

void StudyBConfig::validate() const {
  SchedulerConfig sc{sdp, 1.0, 0.875, 1500.0};
  sc.validate();
  PDS_CHECK(hops >= 1, "need at least one hop");
  PDS_CHECK(link_bandwidth_bps > 0.0, "bandwidth must be positive");
  PDS_CHECK(cross_sources_per_hop >= 1, "need cross traffic");
  PDS_CHECK(cross_mix.size() == sdp.size(), "cross mix / SDP size mismatch");
  PDS_CHECK(utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0,1)");
  PDS_CHECK(pareto_alpha > 1.0, "Pareto shape must exceed 1");
  PDS_CHECK(flow_packets >= 1, "flows need at least one packet");
  PDS_CHECK(flow_rate_kbps > 0.0, "flow rate must be positive");
  PDS_CHECK(packet_bytes > 0, "packet size must be positive");
  PDS_CHECK(user_experiments >= 1, "need at least one experiment");
  PDS_CHECK(experiment_interval_s > 0.0, "interval must be positive");
  PDS_CHECK(warmup_s >= 0.0, "negative warmup");
}

StudyBResult run_study_b(const StudyBConfig& config) {
  config.validate();
  const std::uint32_t n = config.num_classes();
  const std::uint32_t flows_total = config.user_experiments * n;
  const double capacity = config.link_bandwidth_bps / 8.0;  // bytes/s

  // Load calibration: user flows load every link; cross traffic supplies
  // the rest of the target utilization, split evenly across the C sources.
  const double user_bytes_rate =
      static_cast<double>(n) * config.flow_packets * config.packet_bytes /
      config.experiment_interval_s;
  const double cross_bytes_rate =
      config.utilization * capacity - user_bytes_rate;
  PDS_CHECK(cross_bytes_rate > 0.0,
            "user flows alone exceed the target utilization");
  const double per_source_interarrival =
      static_cast<double>(config.packet_bytes) /
      (cross_bytes_rate / config.cross_sources_per_hop);

  // Inter-packet spacing inside a user flow (the paper's periodic flows).
  const double flow_gap = static_cast<double>(config.packet_bytes) * 8.0 /
                          (config.flow_rate_kbps * 1000.0);

  Simulator sim;
  PacketIdAllocator ids;
  Rng master(config.seed);

  SchedulerConfig sched_config;
  sched_config.sdp = config.sdp;
  sched_config.link_capacity = capacity;

  // Figure 6 as a fixed-route network: K hops, one user route over all of
  // them, and one single-hop route per hop for that hop's cross traffic.
  Network net(sim);
  std::vector<LinkId> path;
  for (std::uint32_t h = 0; h < config.hops; ++h) {
    path.push_back(net.add_link(config.scheduler, sched_config, capacity));
  }

  // Per-flow end-to-end delay samples (seconds).
  std::vector<SampleSet> flow_delays(flows_total);
  std::uint64_t user_exits = 0;
  const RouteId user_route =
      net.add_route(path, [&](const Packet& p, SimTime) {
        PDS_REQUIRE(p.flow < flows_total);
        flow_delays[p.flow].add(p.cum_queueing);
        ++user_exits;
      });

  // Cross traffic: C independent mix sources per hop, on a one-hop route
  // whose exits give the per-hop per-class means after warmup (on a one-hop
  // route, cum_queueing is that hop's wait).
  std::vector<std::vector<RunningStats>> hop_delays(
      config.hops, std::vector<RunningStats>(n));
  std::vector<std::unique_ptr<ClassMixSource>> cross;
  cross.reserve(config.hops * config.cross_sources_per_hop);
  for (std::uint32_t h = 0; h < config.hops; ++h) {
    const RouteId route = net.add_route(
        {path[h]}, [&hop_delays, &config, h](const Packet& p, SimTime now) {
          if (now >= config.warmup_s) hop_delays[h][p.cls].add(p.cum_queueing);
        });
    for (std::uint32_t s = 0; s < config.cross_sources_per_hop; ++s) {
      cross.push_back(std::make_unique<ClassMixSource>(
          sim, ids, config.cross_mix,
          pareto_gaps(config.pareto_alpha, per_source_interarrival),
          fixed_size(config.packet_bytes), master.split(),
          [&net, route](Packet p) { net.inject(std::move(p), route); }));
      cross.back()->start(kTimeZero);
    }
  }

  // User experiments: at warmup + k*interval, N identical flows start, one
  // per class (the per-class twins emit packets at the same instants).
  std::vector<std::unique_ptr<CbrFlowSource>> flows;
  flows.reserve(flows_total);
  for (std::uint32_t k = 0; k < config.user_experiments; ++k) {
    for (ClassId c = 0; c < n; ++c) {
      const FlowId flow_id = k * n + c;
      flows.push_back(std::make_unique<CbrFlowSource>(
          sim, ids, c, flow_id, config.flow_packets, config.packet_bytes,
          flow_gap, [&net, user_route](Packet p) {
            net.inject(std::move(p), user_route);
          }));
      flows.back()->start(config.warmup_s +
                          static_cast<double>(k) *
                              config.experiment_interval_s);
    }
  }

  // Run past the last emission, then cut the cross sources and drain so
  // every user packet exits.
  const double flow_duration =
      static_cast<double>(config.flow_packets - 1) * flow_gap;
  const double t_stop = config.warmup_s +
                        config.user_experiments *
                            config.experiment_interval_s +
                        flow_duration + 1.0;
  sim.run_until(t_stop);
  for (auto& s : cross) s->stop();
  sim.run();
  PDS_REQUIRE(user_exits ==
              static_cast<std::uint64_t>(flows_total) * config.flow_packets);

  StudyBResult result;
  result.experiments = config.user_experiments;

  // Per-flow percentiles, then the consistency scan and R_D.
  const auto& ps = study_b_percentiles();
  std::vector<std::vector<double>> pct(flows_total);
  for (FlowId f = 0; f < flows_total; ++f) {
    pct[f] = flow_delays[f].percentiles(ps);
  }

  double rd_sum = 0.0;
  std::uint64_t rd_terms = 0;
  for (std::uint32_t k = 0; k < config.user_experiments; ++k) {
    bool inconsistent = false;
    for (ClassId lo = 0; lo + 1 < n; ++lo) {
      for (ClassId hi = static_cast<ClassId>(lo + 1); hi < n; ++hi) {
        const auto& plo = pct[k * n + lo];
        const auto& phi = pct[k * n + hi];
        bool pair_bad = false;
        for (std::size_t q = 0; q < ps.size(); ++q) {
          if (phi[q] > plo[q] * (1.0 + 1e-12)) {
            pair_bad = true;
            result.worst_violation_s =
                std::max(result.worst_violation_s, phi[q] - plo[q]);
          }
        }
        if (pair_bad) {
          ++result.inconsistent_pairs;
          inconsistent = true;
        }
      }
      // R_D terms use successive pairs only.
      const auto& plo = pct[k * n + lo];
      const auto& phi = pct[k * n + lo + 1];
      for (std::size_t q = 0; q < ps.size(); ++q) {
        if (phi[q] < kMinDenominatorSeconds) {
          ++result.skipped_ratio_terms;
          continue;
        }
        rd_sum += plo[q] / phi[q];
        ++rd_terms;
      }
    }
    if (inconsistent) ++result.inconsistent_experiments;
  }
  result.rd = rd_terms > 0 ? rd_sum / static_cast<double>(rd_terms) : 0.0;

  result.mean_e2e_delay_per_class.assign(n, 0.0);
  for (ClassId c = 0; c < n; ++c) {
    RunningStats agg;
    for (std::uint32_t k = 0; k < config.user_experiments; ++k) {
      for (const double d : flow_delays[k * n + c].samples()) agg.add(d);
    }
    result.mean_e2e_delay_per_class[c] = agg.mean();
  }

  result.mean_utilization_per_hop.reserve(config.hops);
  for (std::uint32_t h = 0; h < config.hops; ++h) {
    result.mean_utilization_per_hop.push_back(net.utilization(path[h]));
  }

  result.per_hop_class_delay.assign(config.hops,
                                    std::vector<double>(n, 0.0));
  result.per_hop_rd.assign(config.hops, 0.0);
  for (std::uint32_t h = 0; h < config.hops; ++h) {
    double rd_sum_hop = 0.0;
    std::uint32_t rd_terms_hop = 0;
    for (ClassId c = 0; c < n; ++c) {
      if (hop_delays[h][c].count() > 0) {
        result.per_hop_class_delay[h][c] = hop_delays[h][c].mean();
      }
    }
    for (ClassId c = 0; c + 1 < n; ++c) {
      const double hi = result.per_hop_class_delay[h][c + 1];
      if (hi > 0.0) {
        rd_sum_hop += result.per_hop_class_delay[h][c] / hi;
        ++rd_terms_hop;
      }
    }
    if (rd_terms_hop > 0) {
      result.per_hop_rd[h] = rd_sum_hop / rd_terms_hop;
    }
  }
  return result;
}

}  // namespace pds
