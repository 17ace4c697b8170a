#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "exp/thread_pool.hpp"
#include "net/scenario.hpp"
#include "obs/report.hpp"

namespace pds {
namespace {

const char* kValid = R"(
# A two-hop chain with a renewal source and a short CBR flow.
link a capacity=39.375 sched=wtp sdp=1,2,4,8
link b capacity=39.375 sched=wtp sdp=1,2,4,8
route chain a b
source renewal chain class=0 gap=30 size=441 pareto=1.9
source cbr chain class=3 count=50 size=441 interval=20 start=10000
run until=50000 warmup=5000 seed=3
)";

// ----------------------------------------------------------------- parsing

TEST(ScenarioParse, AcceptsTheReferenceScenario) {
  const auto s = parse_scenario(kValid);
  ASSERT_EQ(s.links.size(), 2u);
  EXPECT_EQ(s.links[0].name, "a");
  EXPECT_EQ(s.links[0].kind, SchedulerKind::kWtp);
  ASSERT_EQ(s.links[0].sdp.size(), 4u);
  ASSERT_EQ(s.routes.size(), 1u);
  EXPECT_EQ(s.routes[0].links, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(s.sources.size(), 2u);
  EXPECT_EQ(s.sources[0].kind, ScenarioSourceKind::kRenewal);
  EXPECT_DOUBLE_EQ(s.sources[0].pareto_alpha, 1.9);
  EXPECT_EQ(s.sources[1].kind, ScenarioSourceKind::kCbr);
  EXPECT_DOUBLE_EQ(s.sources[1].start, 10000.0);
  EXPECT_DOUBLE_EQ(s.run.until, 50000.0);
  EXPECT_EQ(s.run.seed, 3u);
}

TEST(ScenarioParse, PoissonFlagSelectsExponentialGaps) {
  const auto s = parse_scenario(
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n"
      "source renewal r class=0 gap=5 size=100 poisson\n"
      "run until=100\n");
  EXPECT_DOUBLE_EQ(s.sources[0].pareto_alpha, 0.0);
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
  EXPECT_NO_THROW(parse_scenario(
      "# header\n\nlink a capacity=10 sched=fcfs sdp=1\n"
      "route r a   # inline comment\n"
      "source renewal r class=0 gap=5 size=100\n"
      "run until=10\n"));
}

TEST(ScenarioParse, RejectsUnknownDirective) {
  try {
    parse_scenario("frobnicate x\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(ScenarioParse, RejectsDanglingReferences) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a b\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\n"
                              "source renewal other class=0 gap=5 size=9\n"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsDuplicatesAndMissingSections) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "link a capacity=10 sched=fcfs sdp=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);
  // No run directive.
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\n"
                              "source renewal r class=0 gap=5 size=9\n"),
               std::invalid_argument);
  // No sources.
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\nrun until=10\n"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsUnknownOrMissingOptions) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1 bogus=1\n"
                              "route r a\n"
                              "source renewal r class=0 gap=5 size=9\n"
                              "run until=10\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a sched=fcfs sdp=1\n"),  // no capacity
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a capacity=ten sched=fcfs sdp=1\n"),
               std::invalid_argument);
}

// ------------------------------------------------------------- error paths

// Parse and return the thrown message ("" when nothing threw).
std::string parse_error(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ScenarioErrors, MalformedLinkLinesNameTheirLine) {
  EXPECT_NE(parse_error("# header\nlink\n")
                .find("scenario line 2: link needs a name"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=ten sched=fcfs sdp=1\n")
                .find("scenario line 1: malformed number: ten"),
            std::string::npos);
  EXPECT_NE(parse_error("link a sched=fcfs sdp=1\n")
                .find("line 1: missing required option capacity=..."),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1,,2\n")
                .find("line 1: empty element in sdp"),
            std::string::npos);
}

TEST(ScenarioErrors, MalformedSourceLinesNameTheirLine) {
  const char* prefix =
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n";
  EXPECT_NE(parse_error(std::string(prefix) + "source renewal\n")
                .find("scenario line 3: source needs a kind and route"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) + "source teleport r class=0\n")
                .find("scenario line 3: unknown source kind teleport"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) +
                        "source renewal r class=0 gap=5 size=100 warp=9\n")
                .find("scenario line 3: unknown option warp"),
            std::string::npos);
}

TEST(ScenarioErrors, MalformedRunLinesNameTheirLine) {
  const char* prefix =
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n"
      "source renewal r class=0 gap=5 size=100\n";
  EXPECT_NE(parse_error(std::string(prefix) + "run warmup=5\n")
                .find("scenario line 4: missing required option until=..."),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) + "run until=10\nrun until=20\n")
                .find("scenario line 5: duplicate run directive"),
            std::string::npos);
}

TEST(ScenarioErrors, DuplicateIdsNameTheOffendingLine) {
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "link b capacity=10 sched=fcfs sdp=1\n"
                        "link a capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 3: duplicate link name a"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "route r a\n")
                .find("scenario line 3: duplicate route name r"),
            std::string::npos);
}

TEST(ScenarioErrors, MissingSectionsProduceTheThreeDefinesNoThrows) {
  EXPECT_NE(parse_error("# empty but commented\n")
                .find("scenario defines no links"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "source renewal r class=0 gap=5 size=100\n")
                .find("scenario has no run directive"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "run until=10\n")
                .find("scenario defines no sources"),
            std::string::npos);
}

TEST(ScenarioErrors, NegativePacketCountsAreRejected) {
  // A negative request= used to wrap to ~4.3e9 packets per RPC and hang.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "edge ba from=b to=a capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=b\n"
                        "flows r class=0 users=1 size=100 think=10 "
                        "request=-1\n")
                .find("scenario line 6: request must be an integer in "
                      "[0, 4294967295]"),
            std::string::npos);
}

TEST(ScenarioErrors, SourceSizeMustBeAPositiveInteger) {
  // size=-441 used to wrap to a huge packet and report utilization > 1e5.
  const std::string prefix =
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n";
  EXPECT_NE(parse_error(prefix +
                        "source renewal r class=0 gap=5 size=-441\n")
                .find("scenario line 3: size must be an integer in "
                      "[0, 4294967295]"),
            std::string::npos);
  EXPECT_NE(parse_error(prefix + "source renewal r class=0 gap=5 size=0\n")
                .find("scenario line 3: source needs size >= 1"),
            std::string::npos);
}

TEST(ScenarioErrors, IntegersBeyondUint32AreRejectedNotTruncated) {
  // users=2^32+1 used to run silently with 1 user.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "edge ba from=b to=a capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=b\n"
                        "flows r class=0 users=4294967297 size=100 "
                        "think=10\n")
                .find("scenario line 6: users must be an integer in "
                      "[0, 4294967295]"),
            std::string::npos);
}

// Value errors that used to fail at run time, in the kernel or in a
// scheduler constructor, or wrap silently, are parse errors with a line.
bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

const std::string kOneLink =
    "link a capacity=10 sched=fcfs sdp=1\n"
    "route r a\n";

TEST(ScenarioErrors, NanHorizonNamesItsLine) {
  EXPECT_TRUE(starts_with(
      parse_error(kOneLink + "source renewal r class=0 gap=5 size=100\n"
                             "run until=nan\n"),
      "scenario line 4: "));
}

TEST(ScenarioErrors, NanGapNamesItsLine) {
  EXPECT_TRUE(starts_with(
      parse_error(kOneLink + "source renewal r class=0 gap=nan size=100\n"
                             "run until=10\n"),
      "scenario line 3: "));
}

TEST(ScenarioErrors, NegativeSeedNamesItsLine) {
  EXPECT_TRUE(starts_with(
      parse_error(kOneLink + "source renewal r class=0 gap=5 size=100\n"
                             "run until=10 seed=-1\n"),
      "scenario line 4: seed must be an integer in "));
}

TEST(ScenarioErrors, HorizonWithinTheWarmupNamesItsLine) {
  EXPECT_EQ(parse_error(kOneLink + "source renewal r class=0 gap=5 size=100\n"
                                   "run until=10 warmup=20\n"),
            "scenario line 4: run horizon must exceed the warmup");
}

TEST(ScenarioErrors, UnknownSchedulerNamesItsLine) {
  EXPECT_EQ(parse_error("link a capacity=10 sched=zz sdp=1\n"),
            "scenario line 1: unknown scheduler zz");
}

TEST(ScenarioErrors, NonPositiveCapacityNamesItsLine) {
  EXPECT_EQ(parse_error("link a capacity=-1 sched=fcfs sdp=1\n"),
            "scenario line 1: capacity must be positive");
}

TEST(ScenarioErrors, NonPositiveSdpNamesItsLine) {
  EXPECT_EQ(parse_error("# header\nlink a capacity=10 sched=wtp sdp=0,1\n"),
            "scenario line 2: sdp values must be positive");
  EXPECT_EQ(parse_error("link a capacity=10 sched=wtp sdp=2,1\n"),
            "scenario line 1: sdp values must be non-decreasing");
}

TEST(ScenarioErrors, StrayBareTokensNameTheirLine) {
  EXPECT_EQ(parse_error("link a capacity=10 sched=fcfs sdp=1 fast\n"),
            "scenario line 1: expected key=value, got fast");
}

// Values that used to parse and then fail deep in the library, or run
// silently wrong (pareto=0 ran Poisson, 0 being the internal Poisson
// marker), are parse errors that name their line.
struct ValueErrorCase {
  const char* name;
  const char* line3;  // the directive on line 3, after kOneLink
  const char* run;    // the run directive on line 4
  const char* error;
};

class ScenarioValueErrors : public testing::TestWithParam<ValueErrorCase> {};

TEST_P(ScenarioValueErrors, NameTheirLine) {
  const ValueErrorCase& c = GetParam();
  EXPECT_EQ(parse_error(kOneLink + c.line3 + "\n" + c.run + "\n"), c.error);
}

void PrintTo(const ValueErrorCase& c, std::ostream* os) { *os << c.name; }

std::string value_case_name(const testing::TestParamInfo<ValueErrorCase>& p) {
  return p.param.name;
}

constexpr const char* kRun = "run until=100";

INSTANTIATE_TEST_SUITE_P(
    RunTimeFailures, ScenarioValueErrors,
    testing::Values(
        ValueErrorCase{"gap_zero", "source renewal r class=0 gap=0 size=100",
                       kRun, "scenario line 3: gap must be positive"},
        ValueErrorCase{"source_start_negative",
                       "source renewal r class=0 gap=5 size=100 start=-1",
                       kRun, "scenario line 3: start must be non-negative"},
        ValueErrorCase{"flows_start_negative",
                       "flows r class=0 users=1 size=100 think=5 reverse=r "
                       "start=-1",
                       kRun, "scenario line 3: start must be non-negative"},
        ValueErrorCase{"interval_zero",
                       "source cbr r class=0 count=5 size=100 interval=0",
                       kRun, "scenario line 3: interval must be positive"},
        ValueErrorCase{"count_zero",
                       "source cbr r class=0 count=0 size=100 interval=5",
                       kRun,
                       "scenario line 3: count must be an integer in "
                       "[1, 4294967295]"},
        ValueErrorCase{"fractions_negative",
                       "source mix r fractions=-1 gap=5 size=100", kRun,
                       "scenario line 3: fractions must be non-negative"},
        ValueErrorCase{"fractions_all_zero",
                       "source mix r fractions=0 gap=5 size=100", kRun,
                       "scenario line 3: fractions must not all be zero"},
        ValueErrorCase{"pareto_one",
                       "source renewal r class=0 gap=5 size=100 pareto=1",
                       kRun, "scenario line 3: pareto shape must exceed 1"},
        ValueErrorCase{"pareto_zero_is_not_poisson",
                       "source mix r fractions=1 gap=5 size=100 pareto=0",
                       kRun, "scenario line 3: pareto shape must exceed 1"},
        ValueErrorCase{"deadline_negative",
                       "flows r class=0 users=1 size=100 think=5 reverse=r "
                       "deadline=-1",
                       kRun, "scenario line 3: deadline must be non-negative"},
        ValueErrorCase{"rto_cap_negative",
                       "flows r class=0 users=1 size=100 think=5 reverse=r "
                       "rto_cap=-1",
                       kRun, "scenario line 3: rto_cap must be non-negative"},
        ValueErrorCase{"throttle_negative",
                       "flows r class=0 users=1 size=100 think=5 reverse=r "
                       "throttle=-1",
                       kRun, "scenario line 3: throttle must be non-negative"},
        ValueErrorCase{"throttle_ratio_zero",
                       "flows r class=0 users=1 size=100 think=5 reverse=r "
                       "throttle=10 throttle_ratio=0",
                       kRun,
                       "scenario line 3: throttle_ratio must be positive"},
        ValueErrorCase{"warmup_negative",
                       "source renewal r class=0 gap=5 size=100",
                       "run until=100 warmup=-5",
                       "scenario line 4: warmup must be non-negative"}),
    value_case_name);

TEST(ScenarioErrors, ClassesBeyondTheRouteClassCountNameTheirLine) {
  // These used to pass the parser and abort the run in the class backlog.
  const std::string links =
      "link wide capacity=10 sched=wtp sdp=1,2,4,8\n"
      "link narrow capacity=10 sched=wtp sdp=1,2\n"
      "route r wide narrow\n";
  EXPECT_NE(parse_error(links + "source renewal r class=2 gap=5 size=100\n"
                                "run until=100\n")
                .find("scenario line 4: class 2 exceeds the 2 classes of "
                      "route r"),
            std::string::npos);
  EXPECT_NE(parse_error(links +
                        "source mix r fractions=1,1,1 gap=5 size=100\n"
                        "run until=100\n")
                .find("scenario line 4: fractions= class 2 exceeds the 2 "
                      "classes of route r"),
            std::string::npos);
  // Flows check the response path too: here only b->a is narrow.
  const std::string graph =
      "node a\nnode b\n"
      "edge ab from=a to=b capacity=10 sched=wtp sdp=1,2,4\n"
      "edge ba from=b to=a capacity=10 sched=wtp sdp=1,2\n"
      "route r from=a to=b\n";
  EXPECT_NE(parse_error(graph + "flows r class=2 users=1 size=100 think=10\n"
                                "run until=100\n")
                .find("scenario line 6: class 2 exceeds the 2 classes of "
                      "the response path of route r"),
            std::string::npos);
  EXPECT_EQ(parse_error(graph + "flows r class=1 users=1 size=100 think=10\n"
                                "run until=100\n"),
            "");
  // A routed route runs on the shortest path over every edge in the file,
  // here the narrow a->c declared after it.
  EXPECT_NE(parse_error("node a\nnode b\nnode c\n"
                        "edge ab from=a to=b capacity=10 sched=wtp sdp=1,2,4\n"
                        "edge bc from=b to=c capacity=10 sched=wtp sdp=1,2,4\n"
                        "route r from=a to=c\n"
                        "edge ac from=a to=c capacity=10 sched=wtp sdp=1,2\n"
                        "source renewal r class=2 gap=5 size=100\n"
                        "run until=100\n")
                .find("scenario line 8: class 2 exceeds the 2 classes of "
                      "route r"),
            std::string::npos);
}

// ------------------------------------------------------- graph-layer grammar

const char* kGraph = R"(
node a
node b
node c
edge ab from=a to=b capacity=39.375 sched=wtp sdp=1,2
edge ba from=b to=a capacity=39.375 sched=wtp sdp=1,2
edge bc from=b to=c capacity=39.375 sched=wtp sdp=1,2
edge cb from=c to=b capacity=39.375 sched=wtp sdp=1,2
route fwd from=a to=c
source renewal fwd class=0 gap=30 size=441 poisson
flows fwd class=1 users=4 size=441 think=100 deadline=50
run until=20000 warmup=2000 seed=9
)";

TEST(ScenarioGraph, ParsesNodesEdgesRoutedRoutesAndFlows) {
  const auto s = parse_scenario(kGraph);
  EXPECT_EQ(s.nodes, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(s.links.size(), 4u);
  EXPECT_EQ(s.links[0].from, "a");
  EXPECT_EQ(s.links[0].to, "b");
  ASSERT_EQ(s.routes.size(), 1u);
  EXPECT_TRUE(s.routes[0].links.empty());
  EXPECT_EQ(s.routes[0].from, "a");
  EXPECT_EQ(s.routes[0].to, "c");
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].route, "fwd");
  EXPECT_EQ(s.flows[0].users, 4u);
  EXPECT_DOUBLE_EQ(s.flows[0].deadline, 50.0);
}

TEST(ScenarioGraph, TopologyDirectiveExpandsToNodesAndDirectedLinks) {
  const auto s = parse_scenario(
      "topology ring n=4 capacity=10 sched=fcfs sdp=1\n"
      "route r from=n0 to=n2\n"
      "source renewal r class=0 gap=30 size=100 poisson\n"
      "run until=1000\n");
  EXPECT_EQ(s.nodes.size(), 4u);
  EXPECT_EQ(s.links.size(), 8u);  // one per direction of 4 ring edges
  EXPECT_EQ(s.links[0].name, "n0>n1");
  EXPECT_EQ(s.links[1].name, "n1>n0");
}

TEST(ScenarioGraph, UnknownNodeNamesItsLine) {
  EXPECT_NE(parse_error("node a\n"
                        "edge e from=a to=ghost capacity=10 sched=fcfs "
                        "sdp=1\n")
                .find("scenario line 2: unknown node ghost"),
            std::string::npos);
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge e from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=ghost to=b\n")
                .find("scenario line 4: unknown node ghost"),
            std::string::npos);
}

TEST(ScenarioGraph, UnreachablePairNamesItsLine) {
  // a->b exists but nothing reaches c.
  EXPECT_NE(parse_error("node a\nnode b\nnode c\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=c\n")
                .find("scenario line 5: no path from a to c"),
            std::string::npos);
  // Directed: b->a is not implied by a->b.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=b to=a\n")
                .find("scenario line 4: no path from b to a"),
            std::string::npos);
}

TEST(ScenarioGraph, DuplicateNodeAndEdgeNamesNameTheirLine) {
  EXPECT_NE(parse_error("node a\nnode a\n")
                .find("scenario line 2: duplicate node name a"),
            std::string::npos);
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge e from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "edge e from=b to=a capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 4: duplicate link name e"),
            std::string::npos);
  // A generated topology name colliding with a manual one reports the
  // topology line.
  EXPECT_NE(parse_error("node n0\nnode n1\n"
                        "edge n0>n1 from=n0 to=n1 capacity=10 sched=fcfs "
                        "sdp=1\n"
                        "topology line n=2 capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 4: duplicate node name n0"),
            std::string::npos);
}

TEST(ScenarioGraph, FlowsValidationNamesItsLine) {
  const std::string prefix =
      "node a\nnode b\n"
      "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
      "edge ba from=b to=a capacity=10 sched=fcfs sdp=1\n"
      "route r from=a to=b\n";
  EXPECT_NE(parse_error(prefix + "flows ghost class=0 users=1 size=100 "
                                 "think=10\n")
                .find("scenario line 6: unknown route ghost"),
            std::string::npos);
  EXPECT_NE(parse_error(prefix + "flows r class=0 users=1 size=100 think=10 "
                                 "retries=2\n")
                .find("scenario line 6: retries need a positive rto"),
            std::string::npos);
  // Flows over an explicit (link-list) route need an explicit reverse.
  EXPECT_NE(parse_error("link l capacity=10 sched=fcfs sdp=1\n"
                        "route r l\n"
                        "flows r class=0 users=1 size=100 think=10\n")
                .find("scenario line 3: flows over an explicit route need "
                      "reverse="),
            std::string::npos);
  // Reverse direction must be reachable: a->b only.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=b\n"
                        "flows r class=0 users=1 size=100 think=10\n")
                .find("scenario line 5: no path from b to a"),
            std::string::npos);
}

// ----------------------------------------------------------------- running

TEST(ScenarioRun, ExecutesAndReports) {
  const auto report = run_scenario(kValid);
  EXPECT_GT(report.total_exits, 500u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  for (const auto& ls : report.link_stats) {
    EXPECT_GT(ls.utilization, 0.1);
    EXPECT_LT(ls.utilization, 1.0);
    EXPECT_GT(ls.packets_sent, 0u);
  }
  // Both the renewal class (0) and the CBR class (3) produced stats.
  bool saw0 = false, saw3 = false;
  for (const auto& rs : report.route_stats) {
    if (rs.cls == 0) saw0 = true;
    if (rs.cls == 3) saw3 = true;
    EXPECT_GE(rs.mean_delay, 0.0);
    EXPECT_GE(rs.p95_delay, 0.0);  // mostly-zero delays are legal at 37% load
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw3);
}

TEST(ScenarioRun, SeedOverrideChangesTheRun) {
  const auto a = run_scenario(kValid);
  const auto b = run_scenario(kValid, 99u);
  const auto c = run_scenario(kValid, 99u);
  EXPECT_EQ(b.total_exits, c.total_exits);  // deterministic per seed
  EXPECT_NE(a.total_exits, b.total_exits);
}

TEST(ScenarioRun, DifferentiationShowsUpInTheReport) {
  // Two classes at heavy load on one WTP link: class-1 mean delay must be
  // about half of class-0's.
  const char* scenario = R"(
link l capacity=39.375 sched=wtp sdp=1,2
route r l
source renewal r class=0 gap=23.6 size=441 pareto=1.9
source renewal r class=1 gap=23.6 size=441 pareto=1.9
run until=400000 warmup=40000 seed=5
)";
  const auto report = run_scenario(scenario);
  double d0 = 0.0, d1 = 0.0;
  for (const auto& rs : report.route_stats) {
    if (rs.cls == 0) d0 = rs.mean_delay;
    if (rs.cls == 1) d1 = rs.mean_delay;
  }
  ASSERT_GT(d0, 0.0);
  ASSERT_GT(d1, 0.0);
  EXPECT_NEAR(d0 / d1, 2.0, 0.4);
}

// ------------------------------------------------------------------ golden

// Mirror of examples/scenarios/y_merge.pds. The expected numbers below were
// captured on the pre-graph-refactor runner; they pin the legacy
// (link/route/source) execution path to byte-identical behavior across the
// topology-layer refactor.
const char* kYMerge = R"(
link accessA  capacity=39.375 sched=wtp sdp=1,2,4,8
link accessB  capacity=39.375 sched=wtp sdp=1,2,4,8
link backbone capacity=78.75  sched=wtp sdp=1,2,4,8

route pathA accessA backbone
route pathB accessB backbone

source mix pathA fractions=40,30,20,10 gap=14 size=441 pareto=1.9
source mix pathB fractions=40,30,20,10 gap=14 size=441 pareto=1.9

source cbr pathA class=3 count=2000 size=200 interval=100 start=10000

run until=300000 warmup=30000 seed=42
)";

TEST(ScenarioGolden, YMergeReproducesThePreRefactorRun) {
  const auto report = run_scenario(kYMerge);
  EXPECT_EQ(report.total_exits, 44766u);
  struct Row { const char* route; ClassId cls; std::uint64_t packets; };
  const Row expected[] = {
      {"pathA", 0, 7801}, {"pathA", 1, 5773}, {"pathA", 2, 3811},
      {"pathA", 3, 3753}, {"pathB", 0, 7578}, {"pathB", 1, 5913},
      {"pathB", 2, 3790}, {"pathB", 3, 1882},
  };
  ASSERT_EQ(report.route_stats.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.route_stats[i].route, expected[i].route);
    EXPECT_EQ(report.route_stats[i].cls, expected[i].cls);
    EXPECT_EQ(report.route_stats[i].packets, expected[i].packets) << i;
  }
  ASSERT_EQ(report.link_stats.size(), 3u);
  EXPECT_EQ(report.link_stats[0].packets_sent, 23457u);
  EXPECT_EQ(report.link_stats[1].packets_sent, 21311u);
  EXPECT_EQ(report.link_stats[2].packets_sent, 44767u);
}

TEST(ScenarioGolden, DefaultOptionsMatchTheLegacyOverload) {
  ScenarioOptions options;
  const auto a = run_scenario(kYMerge);
  const auto b = run_scenario(kYMerge, options);
  EXPECT_EQ(a.total_exits, b.total_exits);
  ASSERT_EQ(a.route_stats.size(), b.route_stats.size());
  for (std::size_t i = 0; i < a.route_stats.size(); ++i) {
    EXPECT_EQ(a.route_stats[i].packets, b.route_stats[i].packets);
    EXPECT_DOUBLE_EQ(a.route_stats[i].mean_delay,
                     b.route_stats[i].mean_delay);
  }
}

// Routed-fabric pins: FNV-1a of the rendered run report at 10% horizon.
// The values were captured from the runner before the sharded kernel was
// removed; they guard that routed-fabric output did not move.
std::uint64_t report_hash(const std::string& text,
                          const ScenarioOptions& options,
                          ScenarioReport* out = nullptr) {
  const Scenario scenario = parse_scenario(text);
  const ScenarioReport report = run_scenario(scenario, options);
  if (out != nullptr) *out = report;
  const std::string doc =
      scenario_run_report(scenario, report,
                          options.seed.value_or(scenario.run.seed))
          .dump();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : doc) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// examples/scenarios/fat_tree.pds with buffer=40 on its topology line, so
// the loss episode below has a drop stage to act on.
const char* kFatTreePds = R"(
topology fat_tree k=4 capacity=39.375 sched=wtp sdp=1,2,4 buffer=40
route rpc01 from=p0edge0 to=p1edge0
route rpc23 from=p2edge0 to=p3edge1
route intra from=p0edge0 to=p0edge1
flows rpc01 class=2 users=24 size=441 think=1500 request=2 response=2 deadline=450 rto=900 retries=2 backoff=2 throttle=50 throttle_ratio=0.2
flows rpc23 class=1 users=24 size=441 think=1500 request=2 response=2 deadline=140
flows intra class=0 users=12 size=600 think=1500 request=1 response=4 deadline=400
route bg from=p0edge1 to=p1edge1
source mix bg fractions=60,30,10 gap=30 size=441 pareto=1.9
run until=300000 warmup=30000 seed=21
)";

// examples/scenarios/ring.pds.
const char* kRingPds = R"(
topology ring n=6 capacity=39.375 sched=wtp sdp=1,2,4,8
route east  from=n0 to=n2
route west  from=n2 to=n0
route cross from=n0 to=n3
source mix east fractions=40,30,20,10 gap=20 size=441 pareto=1.9
source mix west fractions=40,30,20,10 gap=20 size=441 pareto=1.9
flows cross class=3 users=12 size=441 think=1200 request=2 response=2 deadline=400
flows cross class=0 users=12 size=441 think=1200 request=2 response=2 deadline=400
run until=300000 warmup=30000 seed=7
)";

TEST(ScenarioGolden, FatTreeUnderFaultAndControlPlansIsPinned) {
  ScenarioOptions options;
  options.horizon_scale = 0.1;
  options.fault_plan =
      "seed 5\n"
      "down p0agg0>core0 at=4000 for=1500 mode=hold\n"
      "down core0>p1agg0 at=8000 for=1500 mode=drop\n"
      "degrade core0* at=12000 for=3000 factor=0.5\n"
      "loss p0agg0>core0 at=17000 for=4000 rate=0.05\n";
  options.control_plan =
      "seed 5\n"
      "retune p0agg0>core0 at=5000 w=1,3,9\n"
      "swap core0>p1agg0 at=10000 sched=hpd\n"
      "shed p0agg0>core0 at=14000 for=4000 watermark=2 classes=2\n"
      "class p0edge1>p0agg0 at=20000 drain=0\n"
      "class p0edge1>p0agg0 at=24000 add=0\n";
  ScenarioReport report;
  EXPECT_EQ(report_hash(kFatTreePds, options, &report), 0xa1134f6f47fdf2c5ULL);
  // Every episode ran and every drop kind the plans cause shows up, so the
  // pin covers the exception paths and not just the clean run.
  EXPECT_EQ(report.fault_episodes, report.fault_episodes_scheduled);
  EXPECT_EQ(report.control_episodes, report.control_episodes_scheduled);
  EXPECT_GT(report.fault_drops, 0u);
  EXPECT_GT(report.shed_drops, 0u);
  EXPECT_GT(report.drain_drops, 0u);
}

TEST(ScenarioGolden, RingIsPinned) {
  ScenarioOptions options;
  options.horizon_scale = 0.1;
  EXPECT_EQ(report_hash(kRingPds, options), 0x9a8dc32208ff0181ULL);
}

// ------------------------------------------------------------- new options

TEST(ScenarioOptionsRun, HorizonScaleShortensTheRun) {
  ScenarioOptions options;
  options.horizon_scale = 0.1;
  const auto quick = run_scenario(kValid, options);
  const auto full = run_scenario(kValid);
  EXPECT_GT(quick.total_exits, 0u);
  EXPECT_LT(quick.total_exits, full.total_exits / 4);
}

TEST(ScenarioOptionsRun, FaultPlanDropsPacketsAndFillsLinkStats) {
  ScenarioOptions options;
  options.fault_plan = "down a at=20000 for=5000 mode=drop\n";
  const auto report = run_scenario(kValid, options);
  EXPECT_TRUE(report.faulted);
  EXPECT_EQ(report.fault_episodes_scheduled, 1u);
  EXPECT_EQ(report.fault_episodes, 1u);
  EXPECT_GT(report.fault_drops, 0u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_EQ(report.link_stats[0].sched, "wtp");
  EXPECT_GT(report.link_stats[0].fault_drops, 0u);
  EXPECT_EQ(report.link_stats[1].fault_drops, 0u);
  EXPECT_EQ(report.link_stats[0].burst_drops, 0u);
}

TEST(ScenarioParse, BufferOptionDeclaresADropTailLink) {
  const auto s = parse_scenario(
      "link a capacity=10 sched=wtp sdp=1,2 buffer=50\n"
      "link b capacity=10 sched=wtp sdp=1,2\n"
      "route r a b\n"
      "source renewal r class=0 gap=5 size=100\n"
      "run until=100\n");
  EXPECT_EQ(s.links[0].buffer, 50u);
  EXPECT_EQ(s.links[1].buffer, 0u);  // default stays lossless
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=wtp sdp=1,2 "
                              "buffer=-1\nroute r a\n"
                              "source renewal r class=0 gap=5 size=100\n"
                              "run until=100\n"),
               std::invalid_argument);
}

const char* kBuffered = R"(
link a capacity=39.375 sched=wtp sdp=1,2,4,8 buffer=100
link b capacity=39.375 sched=wtp sdp=1,2,4,8
route chain a b
source renewal chain class=0 gap=30 size=441 pareto=1.9
source cbr chain class=3 count=50 size=441 interval=20 start=10000
run until=50000 warmup=5000 seed=3
)";

TEST(ScenarioOptionsRun, LossFaultsOnBufferedLinksReportBurstDrops) {
  // buffer= wraps the link in a LossyLink, which is what lets fault `loss`
  // episodes target it; the episode's drops surface as burst_drops.
  ScenarioOptions options;
  options.fault_plan = "loss a at=10000 for=20000 rate=0.5\n";
  const auto report = run_scenario(kBuffered, options);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_GT(report.link_stats[0].burst_drops, 0u);
  EXPECT_EQ(report.link_stats[1].burst_drops, 0u);
  const auto scenario = parse_scenario(kBuffered);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_NE(json.find("\"burst_drops\":"), std::string::npos);
  EXPECT_NE(json.find("\"buffer_drops\":"), std::string::npos);
}

TEST(ScenarioOptionsRun, LossFaultsOnLosslessLinksAreRejected) {
  ScenarioOptions options;
  options.fault_plan = "loss a at=10000 for=2000 rate=0.5\n";
  EXPECT_THROW(run_scenario(kValid, options), std::invalid_argument);
}

TEST(ScenarioOptionsRun, ControlPlanReconfiguresAndFillsTheReport) {
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,1,1,1\n"
      "class a at=20000 drain=0\n"
      "class a at=30000 add=0\n"
      "swap b at=25000 sched=pad\n"
      "shed a at=35000 for=5000 watermark=1 classes=1\n";
  const auto report = run_scenario(kValid, options);
  EXPECT_TRUE(report.controlled);
  EXPECT_EQ(report.control_episodes_scheduled, 5u);
  EXPECT_EQ(report.control_episodes, 5u);
  EXPECT_EQ(report.control_retunes, 1u);
  EXPECT_EQ(report.control_swaps, 1u);
  EXPECT_EQ(report.control_class_changes, 2u);
  EXPECT_EQ(report.control_sheds, 1u);
  // The drain window spans ~333 class-0 renewal arrivals on link a.
  EXPECT_GT(report.drain_drops, 0u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_EQ(report.link_stats[0].control_drops,
            report.drain_drops + report.shed_drops);
  EXPECT_EQ(report.link_stats[1].control_drops, 0u);
  // A controlled run still delivers traffic end to end.
  EXPECT_GT(report.total_exits, 0u);
}

TEST(ScenarioOptionsRun, UncontrolledReportHasNoControlSection) {
  const auto scenario = parse_scenario(kValid);
  const auto report = run_scenario(scenario, ScenarioOptions{});
  EXPECT_FALSE(report.controlled);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_EQ(json.find("\"control\":"), std::string::npos);
}

TEST(ScenarioOptionsRun, RunReportCarriesAControlSection) {
  const auto scenario = parse_scenario(kValid);
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,1,1,1\n"
      "swap b at=25000 sched=pad\n";
  const auto report = run_scenario(scenario, options);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_NE(json.find("\"control\":"), std::string::npos);
  EXPECT_NE(json.find("\"scheduled\":2"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"retunes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"swaps\":1"), std::string::npos);
  EXPECT_NE(json.find("\"class_changes\":0"), std::string::npos);
  EXPECT_NE(json.find("\"sheds\":0"), std::string::npos);
  EXPECT_NE(json.find("\"shed_drops\":0"), std::string::npos);
  EXPECT_NE(json.find("\"drain_drops\":0"), std::string::npos);
  EXPECT_NE(json.find("\"control_drops\":"), std::string::npos);
}

TEST(ScenarioJobs, ControlledRunsAreByteIdenticalAcrossJobs) {
  // The control plane's determinism contract: every control boundary is a
  // scripted simulator event, so a controlled run must not depend on the
  // worker count.
  const auto scenario = parse_scenario(kValid);
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,2,3,4\n"
      "swap a at=25000 sched=hpd\n"
      "shed b at=30000 for=5000 watermark=2 classes=2\n";
  ThreadPool::set_global_workers(1);
  const auto one = run_scenario(scenario, options);
  const std::string json_one = scenario_run_report(scenario, one, 3u).dump();
  ThreadPool::set_global_workers(4);
  const auto four = run_scenario(scenario, options);
  const std::string json_four = scenario_run_report(scenario, four, 3u).dump();
  ThreadPool::set_global_workers(0);  // restore auto for other suites
  EXPECT_EQ(json_one, json_four);
}

TEST(ScenarioOptionsRun, RunReportCarriesFlowsAndFaultSections) {
  const auto scenario = parse_scenario(kGraph);
  ScenarioOptions options;
  options.fault_plan = "down ab at=5000 for=500 mode=drop\n";
  const auto report = run_scenario(scenario, options);
  const auto doc = scenario_run_report(scenario, report, 9u);
  const std::string json = doc.dump();
  EXPECT_NE(json.find("\"schema\":\"pds.run_report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"scenario\""), std::string::npos);
  EXPECT_NE(json.find("\"flows\":"), std::string::npos);
  EXPECT_NE(json.find("\"slo_attainment\":"), std::string::npos);
  EXPECT_NE(json.find("\"faults\":"), std::string::npos);
  // Deterministic: same run, same document.
  const auto again = run_scenario(scenario, options);
  EXPECT_EQ(json, scenario_run_report(scenario, again, 9u).dump());
}

}  // namespace
}  // namespace pds
