// The benchmark's workloads: what each one runs, how its output is digested,
// and the oracle each run is checked against.
//
// Every workload is a closed loop of one timed operation at a fixed input
// size, called through the library's public entry points
// (run_study_a_replications, run_scenario, scenario_run_report). The
// workload seed is the only input the command line controls; everything
// else (scenario text, plans, sizes) is fixed here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/study_a.hpp"
#include "net/scenario.hpp"
#include "tracing.hpp"

namespace perfbench {

enum class WorkloadKind { kSingleLinkWtp, kFabricRpc, kFabricFaults };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kSingleLinkWtp;
  std::string name;
  std::uint64_t seed = 1;

  // single_link_wtp: one replication set of Study A on the exp pool.
  pds::StudyAConfig study;
  std::uint32_t replications = 0;

  // fabric_*: a generated scenario run through run_scenario.
  std::string scenario_text;
  pds::ScenarioOptions options;
  bool render_report = false;  // the run report is part of the timed call
};

// Throws std::invalid_argument for an unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

// The same call with a horizon so short that almost no events run: parse,
// build and teardown only.
WorkloadSpec setup_variant(const WorkloadSpec& spec);

// Deterministic outputs of one Study A replication, as compared between the
// untraced call and the traced rebuild.
struct StudyASummary {
  std::vector<double> mean_delays;
  std::vector<double> ratios;
  std::vector<std::uint64_t> departures;
  double utilization = 0.0;
  std::uint64_t total_departures = 0;
  std::uint64_t executed_events = 0;
};

// Outcome of one operation (timed or traced).
struct OpResult {
  std::uint64_t packets = 0;  // packets transmitted by links
  std::uint64_t digest = 0;   // FNV-1a of the deterministic outputs
  std::string error;          // oracle failure; empty when the run passed
  double wall_s = 0.0;        // wall time of the timed call

  // Layer counters only the traced run reads.
  double report_ms = 0.0;
  std::uint64_t dropper_drops = 0;
  std::uint64_t fault_episodes = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t ctrl_episodes = 0;
  std::uint64_t ctrl_drops = 0;
};

// One untraced operation at the workload's size; wall_s times the library
// call only, not the digest. Throws what the library throws (including the
// watchdog's WatchdogError).
OpResult run_operation(const WorkloadSpec& spec);

// Digest + oracle shared by the untraced call and the traced rebuild.
OpResult summarize_study_a(const WorkloadSpec& spec,
                           const std::vector<StudyASummary>& seeds);
OpResult summarize_scenario(const WorkloadSpec& spec,
                            const pds::Scenario& scenario,
                            const pds::ScenarioReport& report);

// --- Traced run (traced.cpp) ----------------------------------------------

struct TracedResult {
  OpResult op;
  Tracer totals{0, 0.0};                        // merged over every tracer
  std::vector<std::unique_ptr<Tracer>> tracers;  // one per simulation
  double parse_ms = 0.0;
  double build_ms = 0.0;
  std::uint32_t traced_links = 0;
};

// Rebuilds the workload from the library's public parts, in the same
// construction and Rng::split order the library's own runner uses, with
// tracing hooks at every layer boundary.
TracedResult run_traced(const WorkloadSpec& spec);

}  // namespace perfbench
