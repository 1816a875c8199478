// The `sparsedet adapt` subcommand end to end: flag-built and file-spec
// runs, the JSONL epoch-trace rendering, exit-code semantics (0 = held or
// degraded partial, 1 = completed without holding the floor, 2 = user
// error), the --spec/flag conflict guard, and {"cmd":"adapt"} through the
// stdio serve loop.
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

std::string TestPath(const std::string& suffix) {
  return std::string(::testing::TempDir()) + "sparsedet_cli_adapt_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         suffix;
}

TEST(CliAdapt, AnalyzeModeEmitsEpochLinesPlusSummary) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"adapt", "--nodes", "60", "--window", "10", "--k", "3",
       "--mean-lifetime-s", "40000", "--horizon-epochs", "4",
       "--min-detection", "0.3"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(CountLines(out), 5);  // 4 epoch rows + summary
  EXPECT_NE(out.find("\"mode\":\"analyze\""), std::string::npos);
  EXPECT_NE(out.find("\"epochs_size\":4"), std::string::npos);
  EXPECT_NE(out.find("\"survival\":1"), std::string::npos);
  EXPECT_NE(out.find("\"degraded\":false"), std::string::npos);
}

TEST(CliAdapt, ClosedLoopRetunesAndHoldsTheFloor) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"adapt", "--mode", "closed_loop", "--nodes", "150",
       "--mean-lifetime-s", "25000", "--horizon-epochs", "6",
       "--epoch-periods", "20", "--search-k", "1:6", "--search-window",
       "8:26:2", "--min-detection", "0.9", "--pf", "0.00005", "--max-fa",
       "0.05", "--seed", "11"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(CountLines(out), 7);
  EXPECT_NE(out.find("\"held\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"alive\":"), std::string::npos);
}

TEST(CliAdapt, FailingToHoldTheFloorExitsOne) {
  // No axes to retune over and an impossible floor: the loop completes,
  // reports honestly, and exits 1 (mirroring optimize's nothing-feasible).
  std::string out;
  std::string err;
  const int code = RunCli(
      {"adapt", "--nodes", "60", "--window", "10", "--k", "3",
       "--horizon-epochs", "2", "--min-detection", "0.999999"},
      out, err);
  EXPECT_EQ(code, 1) << err;
  EXPECT_NE(out.find("\"held\":false"), std::string::npos);
  EXPECT_NE(out.find("\"feasible\":false"), std::string::npos);
}

TEST(CliAdapt, SpecFileDrivesTheRun) {
  const std::string path = TestPath(".json");
  {
    std::ofstream file(path);
    file << R"({"mode": "analyze",
                "params": {"nodes": 60, "window": 10, "k": 3},
                "failure": {"mean_lifetime_s": 40000},
                "horizon_epochs": 3,
                "constraints": {"min_detection": 0.3}})";
  }
  std::string out;
  std::string err;
  const int code = RunCli({"adapt", "--spec", path.c_str()}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(CountLines(out), 4);
  std::remove(path.c_str());
}

TEST(CliAdapt, SpecFileConflictsWithSpecBuildingFlags) {
  const std::string path = TestPath(".json");
  {
    std::ofstream file(path);
    file << "{}";
  }
  // A spec flag, a scenario flag and the last spec-building flag.
  for (const char* flag : {"--mean-lifetime-s", "--nodes", "--trials"}) {
    std::string out;
    std::string err;
    const int code = RunCli({"adapt", "--spec", path.c_str(), flag, "100"},
                            out, err);
    EXPECT_EQ(code, 2) << flag;
    EXPECT_NE(err.find(std::string(flag) + " conflicts with --spec"),
              std::string::npos)
        << err;
  }
  std::remove(path.c_str());
}

TEST(CliAdapt, DeadlineExpiryIsADegradedPartialNotAFailure) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"adapt", "--nodes", "60", "--horizon-epochs", "64", "--search-k",
       "1:10", "--search-window", "8:40", "--min-detection", "0.5",
       "--deadline-ms", "1"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"degraded\":true"), std::string::npos) << out;
}

TEST(CliAdapt, MalformedInvocationsAreUserErrors) {
  const std::vector<std::vector<const char*>> cases = {
      {"adapt", "--mode", "sideways"},
      {"adapt", "--failure-model", "uniform"},
      {"adapt", "--estimator", "psychic"},
      {"adapt", "--mean-lifetime-s", "-5"},
      {"adapt", "--report-loss", "1.0"},
      {"adapt", "--horizon-epochs", "0"},
      {"adapt", "--search-k", "5:1"},          // inverted range
      {"adapt", "--search-k", "1.5:8"},        // non-integer axis
      {"adapt", "--estimator-windows", "0"},
      {"adapt", "--seed", "-3"},
      {"adapt", "--no-such-flag", "1"},
  };
  for (const std::vector<const char*>& argv : cases) {
    std::string out;
    std::string err;
    const int code = RunCli(argv, out, err);
    EXPECT_EQ(code, 2) << "argv: " << argv[1] << " " << argv[2];
    EXPECT_NE(err.find("error:"), std::string::npos) << argv[1];
  }
}

TEST(CliAdapt, ReportsEstimatorWithoutPfIsAUserError) {
  std::string out;
  std::string err;
  const int code = RunCli({"adapt", "--estimator", "reports"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("oracle"), std::string::npos) << err;
}

TEST(CliAdapt, UsageMentionsAdapt) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"help"}, out, err), 0);
  EXPECT_NE(out.find("adapt"), std::string::npos);
  EXPECT_NE(out.find("self-healing"), std::string::npos);
}

TEST(CliAdapt, ServeAnswersAdaptCommandsInStream) {
  std::istringstream in(
      R"({"id":1,"op":"analyze"})"
      "\n"
      R"({"cmd":"adapt","id":2,"spec":{"mode":"analyze",)"
      R"("params":{"nodes":60,"window":10,"k":3},)"
      R"("failure":{"mean_lifetime_s":40000},"horizon_epochs":2,)"
      R"("constraints":{"min_detection":0.5}}})"
      "\n"
      R"({"id":3,"op":"analyze"})"
      "\n");
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::CmdServe({}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  const std::string text = out.str();
  EXPECT_EQ(CountLines(text), 3);
  // In-order: the adapt response sits between the two analyze responses.
  const std::size_t first = text.find("\"id\":1");
  const std::size_t second = text.find("\"id\":2");
  const std::size_t third = text.find("\"id\":3");
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  EXPECT_NE(text.find("\"epochs_run\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"held\":"), std::string::npos);
}

}  // namespace
}  // namespace sparsedet
