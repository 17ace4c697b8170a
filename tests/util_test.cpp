#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace pds {
namespace {

// ---------------------------------------------------------------- ArgParser

ArgParser parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, ParsesKeyEqualsValue) {
  const auto args = parse({"--rho=0.95"});
  EXPECT_TRUE(args.has("rho"));
  EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.95);
}

TEST(ArgParser, ParsesKeySpaceValue) {
  const auto args = parse({"--seeds", "7"});
  EXPECT_EQ(args.get_int("seeds", 0), 7);
}

TEST(ArgParser, BareFlagIsTrue) {
  const auto args = parse({"--full"});
  EXPECT_TRUE(args.get_bool("full", false));
}

TEST(ArgParser, MissingKeyYieldsDefault) {
  const auto args = parse({});
  EXPECT_FALSE(args.has("rho"));
  EXPECT_DOUBLE_EQ(args.get_double("rho", 0.7), 0.7);
  EXPECT_EQ(args.get_string("out", "x.csv"), "x.csv");
  EXPECT_FALSE(args.get_bool("full", false));
}

TEST(ArgParser, BooleanSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_THROW(parse({"--a=maybe"}).get_bool("a", true),
               std::invalid_argument);
}

TEST(ArgParser, DoubleListParsing) {
  const auto args = parse({"--sdp=1,2,4,8"});
  const auto v = args.get_double_list("sdp", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[3], 8.0);
}

TEST(ArgParser, DoubleListDefault) {
  const auto v = parse({}).get_double_list("sdp", {1.0, 2.0});
  ASSERT_EQ(v.size(), 2u);
}

TEST(ArgParser, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  EXPECT_THROW(parse({"--rho=abc"}).get_double("rho", 0.0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--rho=1.5x"}).get_double("rho", 0.0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--n=1.5"}).get_int("n", 0), std::invalid_argument);
}

TEST(ArgParser, LastOccurrenceWins) {
  const auto args = parse({"--rho=0.7", "--rho=0.9"});
  EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.9);
}

TEST(ArgParser, UnknownKeysDetected) {
  const auto args = parse({"--rho=0.9", "--sede=1"});
  const auto unknown = args.unknown_keys({"rho", "seed"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "sede");
}

TEST(ArgParser, NegativeValuesViaEquals) {
  // `--key value` would treat "-3" as ambiguous; the = form is exact.
  EXPECT_EQ(parse({"--off=-3"}).get_int("off", 0), -3);
}

// The command-line number rules are the input grammars' (finite, fully
// parsed, integers bounded to their destination type), and every error
// names its flag. One case per input that used to slip through.

std::string arg_error(const char* arg,
                      const std::function<void(const ArgParser&)>& read) {
  try {
    read(parse({arg}));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

constexpr const char* kU32Range = "value must be an integer in [1, 4294967295]";
constexpr const char* kU64Range =
    "value must be an integer in [0, 18446744073709551615]";

TEST(ArgParser, InfiniteSimTimeIsRejected) {
  EXPECT_EQ(arg_error("--sim-time=inf",
                      [](const ArgParser& a) { a.get_double("sim-time", 1); }),
            "--sim-time: number must be finite, got inf");
}

TEST(ArgParser, NegativeUsersAreRejected) {
  EXPECT_EQ(arg_error("--users=-5",
                      [](const ArgParser& a) {
                        a.get_int<std::uint32_t>("users", 1, 1);
                      }),
            std::string("--users: ") + kU32Range);
}

TEST(ArgParser, UsersBeyondTheirTypeAreRejected) {
  EXPECT_EQ(arg_error("--users=4294967297",
                      [](const ArgParser& a) {
                        a.get_int<std::uint32_t>("users", 1, 1);
                      }),
            std::string("--users: ") + kU32Range);
}

TEST(ArgParser, NegativeSeedIsRejected) {
  EXPECT_EQ(arg_error("--seed=-1",
                      [](const ArgParser& a) {
                        a.get_int<std::uint64_t>("seed", 1);
                      }),
            std::string("--seed: ") + kU64Range);
}

TEST(ArgParser, NegativeMaxEventsIsRejected) {
  EXPECT_EQ(arg_error("--max-events=-1",
                      [](const ArgParser& a) {
                        a.get_int<std::uint64_t>("max-events", 0);
                      }),
            std::string("--max-events: ") + kU64Range);
}

TEST(ArgParser, NegativeConformanceMinSamplesIsRejected) {
  EXPECT_EQ(arg_error("--conformance-min-samples=-1",
                      [](const ArgParser& a) {
                        a.get_int<std::uint64_t>("conformance-min-samples", 10);
                      }),
            std::string("--conformance-min-samples: ") + kU64Range);
}

TEST(ArgParser, MalformedListElementsAreRejected) {
  EXPECT_EQ(arg_error("--sdp=1x,2x,4,8",
                      [](const ArgParser& a) { a.get_double_list("sdp", {}); }),
            "--sdp: malformed number: 1x");
}

TEST(ArgParser, OverflowingNumberIsRejected) {
  EXPECT_EQ(arg_error("--sim-time=1e999",
                      [](const ArgParser& a) { a.get_double("sim-time", 1); }),
            "--sim-time: number must be finite, got 1e999");
}

TEST(ArgParser, NanIsRejectedInNumbersAndLists) {
  EXPECT_EQ(arg_error("--rho=nan",
                      [](const ArgParser& a) { a.get_double("rho", 0.9); }),
            "--rho: number must be finite, got nan");
  EXPECT_EQ(arg_error("--taus=1,nan",
                      [](const ArgParser& a) {
                        a.get_double_list("taus", {});
                      }),
            "--taus: number must be finite, got nan");
  EXPECT_EQ(arg_error("--mix=40,NaN,20,10",
                      [](const ArgParser& a) { a.get_double_list("mix", {}); }),
            "--mix: number must be finite, got NaN");
  EXPECT_EQ(arg_error("--metrics-window=nan",
                      [](const ArgParser& a) {
                        a.get_double("metrics-window", 1);
                      }),
            "--metrics-window: number must be finite, got nan");
}

TEST(ArgParser, LargeSeedsAreReadExactly) {
  // An integer literal never rounds through double: 2^53 + 1 survives.
  EXPECT_EQ(parse({"--seed=9007199254740993"})
                .get_int<std::uint64_t>("seed", 1),
            9007199254740993ULL);
  EXPECT_EQ(parse({"--seed=18446744073709551615"})
                .get_int<std::uint64_t>("seed", 1),
            18446744073709551615ULL);
}

TEST(ArgParser, RequireKnownPassesWhenAllKeysAreAllowed) {
  EXPECT_NO_THROW(
      parse({"--rho=0.9", "--seed=1"}).require_known({"rho", "seed"}));
}

TEST(ArgParser, RequireKnownSuggestsTheNearestKey) {
  try {
    parse({"--sede=1"}).require_known({"rho", "seed", "jobs"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown option --sede (did you mean --seed?)");
  }
  try {
    parse({"--sim-tmie=1e5"}).require_known({"sim-time", "seeds", "jobs"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown option --sim-tmie (did you mean --sim-time?)");
  }
}

TEST(ArgParser, RequireKnownOmitsFarFetchedHints) {
  // Nothing within edit distance 2: plain rejection, no guess.
  try {
    parse({"--frobnicate"}).require_known({"rho", "seed"});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown option --frobnicate");
  }
}

// RAII guard so PDS_JOBS manipulation never leaks into other tests.
class PdsJobsEnvGuard {
 public:
  PdsJobsEnvGuard() {
    const char* old = std::getenv("PDS_JOBS");
    if (old != nullptr) saved_ = old;
  }
  ~PdsJobsEnvGuard() {
    if (saved_.empty()) {
      unsetenv("PDS_JOBS");
    } else {
      setenv("PDS_JOBS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST(ArgParser, GetJobsFlagWins) {
  const PdsJobsEnvGuard guard;
  setenv("PDS_JOBS", "7", 1);
  EXPECT_EQ(parse({"--jobs=3"}).get_jobs(), 3u);
}

TEST(ArgParser, GetJobsFallsBackToEnv) {
  const PdsJobsEnvGuard guard;
  setenv("PDS_JOBS", "5", 1);
  EXPECT_EQ(parse({}).get_jobs(), 5u);
}

TEST(ArgParser, GetJobsAbsentMeansAuto) {
  const PdsJobsEnvGuard guard;
  unsetenv("PDS_JOBS");
  EXPECT_EQ(parse({}).get_jobs(), 0u);
  EXPECT_EQ(parse({"--jobs=0"}).get_jobs(), 0u);
}

TEST(ArgParser, GetJobsRejectsGarbage) {
  const PdsJobsEnvGuard guard;
  unsetenv("PDS_JOBS");
  EXPECT_THROW(parse({"--jobs=many"}).get_jobs(), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs=-2"}).get_jobs(), std::exception);
  setenv("PDS_JOBS", "2x", 1);
  EXPECT_THROW(parse({}).get_jobs(), std::exception);
}

// -------------------------------------------------------------- TablePrinter

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"rho", "WTP 1/2"});
  t.add_row({"70%", "1.52"});
  t.add_row({"99.9%", "2.00"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("rho"), std::string::npos);
  EXPECT_NE(out.find("99.9%"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinter, RejectsWidthMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, NumFormatsFixedPrecision) {
  EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(2.0, 1), "2.0");
  EXPECT_EQ(TablePrinter::num(-0.5, 3), "-0.500");
}

TEST(TablePrinter, CountsRows) {
  TablePrinter t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
}

// ----------------------------------------------------------------- CsvWriter

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "pds_csv_test.csv";
  {
    CsvWriter w(path, {"t", "delay"});
    w.add_row(std::vector<double>{1.5, 2.25});
    w.add_row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,delay");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.25");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch) {
  const std::string path = testing::TempDir() + "pds_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row(std::vector<double>{1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

TEST(CsvWriter, CommitsAtomicallyOnClose) {
  const std::string path = testing::TempDir() + "pds_csv_atomic.csv";
  std::remove(path.c_str());
  CsvWriter w(path, {"a"});
  w.add_row(std::vector<double>{1.0});
  // Until close, only the temp file exists — an interrupted run can never
  // leave a truncated CSV under the final name.
  EXPECT_FALSE(file_exists(path));
  EXPECT_TRUE(file_exists(path + ".tmp"));
  w.close();
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_THROW(w.add_row(std::vector<double>{2.0}), std::invalid_argument);
  w.close();  // idempotent
  std::remove(path.c_str());
}

TEST(CsvWriter, OverwritesAPreviousFileOnlyOnCommit) {
  const std::string path = testing::TempDir() + "pds_csv_atomic2.csv";
  {
    CsvWriter w(path, {"a"});
    w.add_row(std::vector<double>{1.0});
  }
  {
    CsvWriter w(path, {"a"});
    w.add_row(std::vector<double>{2.0});
    // The previous run's committed file is intact while this one writes.
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::getline(in, line);
    EXPECT_EQ(line, "1");
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line, "2");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwindingDiscardsThePartialFile) {
  const std::string path = testing::TempDir() + "pds_csv_unwind.csv";
  std::remove(path.c_str());
  try {
    CsvWriter w(path, {"a"});
    w.add_row(std::vector<double>{1.0});
    throw std::runtime_error("interrupted");
  } catch (const std::runtime_error&) {
  }
  // Neither the final file nor the temp file survives the exception.
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

// ----------------------------------------------------------------- contracts

TEST(Contracts, CheckThrowsInvalidArgumentWithContext) {
  try {
    PDS_CHECK(1 == 2, "message here");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("message here"), std::string::npos);
  }
}

TEST(Contracts, RequireThrowsLogicError) {
  EXPECT_THROW(PDS_REQUIRE(false), std::logic_error);
  EXPECT_NO_THROW(PDS_REQUIRE(true));
}

}  // namespace
}  // namespace pds
