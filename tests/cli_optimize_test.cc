// The `sparsedet optimize` subcommand end to end: flag-built and file-spec
// searches, frontier JSONL rendering, exit-code semantics (0 = solved or
// degraded partial, 1 = completed with nothing feasible, 2 = user error),
// and the --spec/flag conflict guard.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"

namespace sparsedet {
namespace {

int RunCli(std::vector<const char*> argv, std::string& out_text,
           std::string& err_text) {
  std::ostringstream out;
  std::ostringstream err;
  argv.insert(argv.begin(), "sparsedet");
  const int code =
      cli::Run(static_cast<int>(argv.size()), argv.data(), out, err);
  out_text = out.str();
  err_text = err.str();
  return code;
}

int CountLines(const std::string& text) {
  int lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

// Per-test path: ctest runs cases in parallel processes.
std::string TestPath(const std::string& suffix) {
  return std::string(::testing::TempDir()) + "sparsedet_cli_opt_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

TEST(CliOptimize, FindsTheCheapestFeasibleFleet) {
  std::string out;
  std::string err;
  const int code =
      RunCli({"optimize", "--search-nodes", "60:160:20", "--search-k", "3:6",
              "--min-detection", "0.8"},
             out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(CountLines(out), 1);
  EXPECT_NE(out.find("\"objective\":\"min_nodes\""), std::string::npos);
  EXPECT_NE(out.find("\"degraded\":false"), std::string::npos);
  // The refined optimum off the coarse grid lines (coarse best is 100).
  EXPECT_NE(out.find("\"nodes\":85,\"k\":3"), std::string::npos) << out;
}

TEST(CliOptimize, FrontierModeEmitsJsonlPlusSummary) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"optimize", "--mode", "frontier", "--objective", "min_energy",
       "--search-duty", "0.5:1:0.25", "--min-detection", "0", "--pf",
       "0.001"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_GE(CountLines(out), 2);  // at least one frontier point + summary
  EXPECT_NE(out.find("\"frontier_size\":"), std::string::npos);
  EXPECT_NE(out.find("\"drain_per_period\":"), std::string::npos);
}

TEST(CliOptimize, SpecFileDrivesTheSearch) {
  const std::string path = TestPath(".json");
  {
    std::ofstream file(path);
    file << R"({"objective": "min_nodes",
                "constraints": {"min_detection": 0.0},
                "search": {"nodes": {"from": 60, "to": 100, "step": 20}},
                "refine_rounds": 0})";
  }
  std::string out;
  std::string err;
  const int code = RunCli({"optimize", "--spec", path.c_str()}, out, err);
  EXPECT_EQ(code, 0) << err;
  // With no constraint pressure, min-nodes picks the grid's smallest fleet.
  EXPECT_NE(out.find("\"nodes\":60"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliOptimize, SpecFileConflictsWithSpecBuildingFlags) {
  const std::string path = TestPath(".json");
  {
    std::ofstream file(path);
    file << "{}";
  }
  // A spec flag, a scenario flag and the last spec-building flag; with
  // two conflicts, the first declared (--nodes before --k) is named.
  const std::vector<std::vector<const char*>> conflicts = {
      {"--search-nodes", "60:100:20"},
      {"--nodes", "100"},
      {"--refine-rounds", "2"},
      {"--k", "2", "--nodes", "100"},
  };
  const char* const named[] = {"--search-nodes", "--nodes",
                               "--refine-rounds", "--nodes"};
  for (std::size_t i = 0; i < conflicts.size(); ++i) {
    std::vector<const char*> argv = {"optimize", "--spec", path.c_str()};
    argv.insert(argv.end(), conflicts[i].begin(), conflicts[i].end());
    std::string out;
    std::string err;
    EXPECT_EQ(RunCli(argv, out, err), 2) << conflicts[i][0];
    EXPECT_NE(err.find(std::string(named[i]) + " conflicts with --spec"),
              std::string::npos)
        << err;
  }
  std::remove(path.c_str());
}

TEST(CliOptimize, MissingSpecFileIsUserError) {
  std::string out;
  std::string err;
  const int code =
      RunCli({"optimize", "--spec", "/nonexistent/spec.json"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(CliOptimize, NothingFeasibleAfterFullSearchExitsOne) {
  std::string out;
  std::string err;
  const int code = RunCli({"optimize", "--search-nodes", "60:80:20",
                           "--min-detection", "0.999999"},
                          out, err);
  EXPECT_EQ(code, 1) << err;
  EXPECT_NE(out.find("\"feasible\":0"), std::string::npos);
  EXPECT_NE(out.find("\"best\":null"), std::string::npos);
  EXPECT_NE(out.find("\"degraded\":false"), std::string::npos);
}

TEST(CliOptimize, DeadlineExpiryIsADegradedPartialNotAFailure) {
  std::string out;
  std::string err;
  // A grid far too large for a 1ms budget: the search must stop between
  // batches, report what it has, and still exit 0.
  const int code = RunCli(
      {"optimize", "--search-nodes", "60:160:1", "--search-k", "2:8",
       "--search-window", "10:20:5", "--min-detection", "0.8",
       "--deadline-ms", "1"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"degraded\":true"), std::string::npos) << out;
}

TEST(CliOptimize, MalformedInvocationsAreUserErrors) {
  const std::vector<std::vector<const char*>> cases = {
      {"optimize", "--objective", "fewest"},
      {"optimize", "--mode", "sideways"},
      {"optimize", "--search-nodes", "60-160"},       // wrong separator
      {"optimize", "--search-nodes", "60:160:0"},     // zero step
      {"optimize", "--search-nodes", "160:60"},       // inverted range
      {"optimize", "--search-duty", "0.5:2.0:0.5"},   // duty past 1
      {"optimize", "--refine-rounds", "-1"},
      {"optimize", "--no-such-flag", "1"},
  };
  for (const std::vector<const char*>& argv : cases) {
    std::string out;
    std::string err;
    const int code = RunCli(argv, out, err);
    EXPECT_EQ(code, 2) << "argv: " << argv[1] << " " << argv[2];
    EXPECT_NE(err.find("error:"), std::string::npos) << argv[1];
  }
}

TEST(CliOptimize, UsageMentionsOptimize) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"help"}, out, err), 0);
  EXPECT_NE(out.find("optimize"), std::string::npos);
}

}  // namespace
}  // namespace sparsedet
