// Grammar fuzzing: mutants of the shipped scenarios and plans must either be
// accepted or rejected with a std::invalid_argument that names their line —
// never a crash, a contract failure deep in the library, or undefined
// behaviour (check.sh runs this suite under ASan/UBSan with UBSan fatal).
// Accepted scenario mutants are also run, briefly and under an event
// budget, so a value that only fails at run time shows up here too.
//
// Mutants come from the project's own Rng with a fixed seed and a fixed
// budget, so every run replays the same inputs. Each mutant applies one to
// three edits: delete, duplicate or swap tokens within a line; delete,
// duplicate or swap whole lines; or replace a value with one of a list of
// hostile values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctrl/control_injector.hpp"
#include "ctrl/control_plan.hpp"
#include "dsim/simulator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

constexpr std::uint64_t kFuzzSeed = 0x5eed2026ULL;
constexpr int kMutantsPerInput = 600;

const char* const kHostileValues[] = {"nan", "inf", "-1",         "0",
                                      "2.5", "1e30", "4294967296", "x"};

using Lines = std::vector<std::vector<std::string>>;

Lines split(const std::string& text) {
  Lines lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (words >> tok) tokens.push_back(tok);
    lines.push_back(std::move(tokens));
  }
  return lines;
}

std::string join(const Lines& lines) {
  std::string text;
  for (const auto& tokens : lines) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) text += ' ';
      text += tokens[i];
    }
    text += '\n';
  }
  return text;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_index(n));
}

void mutate_once(Lines& lines, Rng& rng) {
  if (lines.empty()) return;
  const std::size_t l = pick(rng, lines.size());
  auto& tokens = lines[l];
  switch (pick(rng, 7)) {
    case 0:  // delete a token
      if (!tokens.empty()) {
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(pick(rng, tokens.size())));
      }
      break;
    case 1:  // duplicate a token
      if (!tokens.empty()) {
        const std::size_t t = pick(rng, tokens.size());
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                      tokens[t]);
      }
      break;
    case 2:  // swap two tokens
      if (!tokens.empty()) {
        std::swap(tokens[pick(rng, tokens.size())],
                  tokens[pick(rng, tokens.size())]);
      }
      break;
    case 3:  // delete the line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l));
      break;
    case 4:  // duplicate the line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), lines[l]);
      break;
    case 5:  // swap two lines
      std::swap(lines[l], lines[pick(rng, lines.size())]);
      break;
    default: {  // replace a value (after '=', or a whole positional token)
      if (tokens.empty()) break;
      std::string& tok = tokens[pick(rng, tokens.size())];
      const std::string value = kHostileValues[pick(rng, 8)];
      const auto eq = tok.find('=');
      tok = eq == std::string::npos ? value : tok.substr(0, eq + 1) + value;
      break;
    }
  }
}

std::string mutant(const std::string& text, Rng& rng) {
  Lines lines = split(text);
  const std::size_t edits = 1 + pick(rng, 3);
  for (std::size_t i = 0; i < edits; ++i) mutate_once(lines, rng);
  return join(lines);
}

// True when `msg` starts with `prefix` followed by a line number and ':'.
bool has_line_prefix(const std::string& msg, const std::string& prefix) {
  if (msg.compare(0, prefix.size(), prefix) != 0) return false;
  std::size_t i = prefix.size();
  const std::size_t digits = i;
  while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i]))) {
    ++i;
  }
  return i > digits && i < msg.size() && msg[i] == ':';
}

// True when `msg` names a plan line: "line N" or "lines A and B".
bool names_a_line(const std::string& msg) {
  for (auto pos = msg.find("line"); pos != std::string::npos;
       pos = msg.find("line", pos + 1)) {
    std::size_t i = pos + 4;
    if (i < msg.size() && msg[i] == 's') ++i;
    if (i + 1 < msg.size() && msg[i] == ' ' &&
        std::isdigit(static_cast<unsigned char>(msg[i + 1]))) {
      return true;
    }
  }
  return false;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> shipped_scenarios() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(PDS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".pds") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(slurp(path));
  return texts;
}

// The plans of scripts/check.sh and of the fabric_faults benchmark workload
// (perfbench/workloads.cpp, seed 1, horizon 3e6).
const char* const kFaultPlans[] = {
    "seed 1\n"
    "down p0agg0>core0 at=150000 for=3000 mode=hold\n"
    "down core0>p1agg0 at=450000 for=2000 mode=drop\n"
    "degrade core0* at=750000 for=150000 factor=0.5\n"
    "stall p0edge0>p0agg0 at=1050000 for=1500\n"
    "loss p0agg0>core0 at=1350000 for=150000 rate=0.05\n"
    "down p2agg0>core0 at=1650000 for=3000 mode=hold\n"
    "degrade p0agg0>p0edge1 at=1950000 for=150000 factor=0.6\n"
    "stall core0>p3agg0 at=2250000 for=2000\n"
    "loss p1agg0>p1edge0 at=2550000 for=150000 rate=0.05\n",
};
const char* const kControlPlans[] = {
    "retune p0* at=8000 w=1,3,9\n"
    "swap core0>p1agg0 at=12000 sched=hpd\n"
    "shed p0edge0>p0agg0 at=10000 for=10000 watermark=40 classes=1\n",
    "seed 1\n"
    "retune p0agg0>core0 at=300000 w=1,3,9\n"
    "shed p0agg0>core0 at=600000 for=300000 watermark=12 classes=1\n"
    "swap core0>p1agg0 at=900000 sched=hpd\n"
    "retune core0>p1agg0 at=1200000 g=0.5\n"
    "class p0edge1>p0agg0 at=1500000 drain=0\n"
    "class p0edge1>p0agg0 at=1800000 add=0\n"
    "swap p2agg0>core0 at=2100000 sched=bpr\n"
    "shed core0>p3agg0 at=2400000 for=300000 watermark=8 sojourn=200 "
    "classes=2\n"
    "retune p0agg0>core0 at=2700000 w=1,2,4\n",
};

// The k=4 fat tree with drop-tail links, as fabric_faults builds it.
struct Fabric {
  Simulator sim;
  Network net{sim};

  Fabric() {
    SchedulerConfig config;
    config.sdp = {1.0, 2.0, 4.0};
    config.link_capacity = 39.375;
    build_topology(net, make_fat_tree_topology(4), SchedulerKind::kWtp, config,
                   39.375);
    for (LinkId id = 0; id < net.num_links(); ++id) net.make_lossy(id, 40);
  }
};

template <typename Injector, typename Parse>
void parse_and_arm(const std::string& text, Parse parse) {
  Fabric fabric;
  Injector injector(fabric.sim, parse(text));
  attach_network(injector, fabric.net);
  injector.arm();
}

template <typename Injector, typename Parse>
void fuzz_plans(const char* const* seeds, std::size_t count, Parse parse) {
  Rng rng(kFuzzSeed);
  for (std::size_t s = 0; s < count; ++s) {
    ASSERT_NO_THROW(parse_and_arm<Injector>(seeds[s], parse)) << seeds[s];
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string text = mutant(seeds[s], rng);
      try {
        parse_and_arm<Injector>(text, parse);
      } catch (const std::invalid_argument& e) {
        EXPECT_TRUE(names_a_line(e.what())) << e.what() << "\n" << text;
      }
    }
  }
}

TEST(GrammarFuzz, ScenarioMutantsParseOrNameTheirLine) {
  const auto seeds = shipped_scenarios();
  ASSERT_GE(seeds.size(), 4u);
  Rng rng(kFuzzSeed);
  for (const std::string& seed : seeds) {
    ASSERT_NO_THROW(parse_scenario(seed)) << seed;
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string text = mutant(seed, rng);
      try {
        parse_scenario(text);
      } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_TRUE(has_line_prefix(msg, "scenario line ") ||
                    msg == "scenario defines no links" ||
                    msg == "scenario has no run directive" ||
                    msg == "scenario defines no sources")
            << msg << "\n" << text;
      }
    }
  }
}

// Every mutant the parser accepts must also run: at 1% of its horizon and
// under an event budget, each run finishes or trips the budget. A contract
// failure ("check failed", "invariant violated") or any other exception is
// a value the parser should have rejected with its line. Replays the mutant
// stream of the test above.
TEST(GrammarFuzz, AcceptedScenarioMutantsRunOrTripTheBudget) {
  ScenarioOptions options;
  options.horizon_scale = 0.01;
  options.max_events = 5000;
  Rng rng(kFuzzSeed);
  int ran = 0;
  int tripped = 0;
  for (const std::string& seed : shipped_scenarios()) {
    for (int i = 0; i < kMutantsPerInput; ++i) {
      const std::string text = mutant(seed, rng);
      Scenario scenario;
      try {
        scenario = parse_scenario(text);
      } catch (const std::invalid_argument&) {
        continue;
      }
      try {
        run_scenario(scenario, options);
        ++ran;
      } catch (const SimBudgetExceeded&) {
        ++tripped;
      } catch (const std::exception& e) {
        ADD_FAILURE() << e.what() << "\n" << text;
      }
    }
  }
  // The budget is generous enough that most mutants run to the end.
  EXPECT_GT(ran, 1000);
  RecordProperty("ran", ran);
  RecordProperty("tripped", tripped);
}

TEST(GrammarFuzz, FaultPlanMutantsArmOrNameTheirLine) {
  fuzz_plans<FaultInjector>(kFaultPlans, std::size(kFaultPlans),
                            parse_fault_plan);
}

TEST(GrammarFuzz, ControlPlanMutantsArmOrNameTheirLine) {
  fuzz_plans<ControlInjector>(kControlPlans, std::size(kControlPlans),
                              parse_control_plan);
}

TEST(GrammarFuzz, NamesALineRecognisesBothForms) {
  EXPECT_TRUE(names_a_line("fault plan line 3: x"));
  EXPECT_TRUE(names_a_line("control plan: line 12: unknown target zz"));
  EXPECT_TRUE(names_a_line("fault plan: overlapping stall episodes on l "
                           "(lines 1 and 3)"));
  EXPECT_FALSE(names_a_line("fault plan: unknown target nosuch"));
  EXPECT_TRUE(has_line_prefix("scenario line 7: x", "scenario line "));
  EXPECT_FALSE(has_line_prefix("scenario line : x", "scenario line "));
}

}  // namespace
}  // namespace pds
