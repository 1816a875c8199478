#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/commands.h"
#include "cli/flags.h"
#include "common/error.h"

namespace sparsedet {
namespace {

// ---- FlagParser ----------------------------------------------------------

FlagParser Parse(std::vector<const char*> argv) {
  return FlagParser(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(FlagParser, ParsesSeparateAndEqualsForms) {
  FlagParser flags = Parse({"--nodes", "120", "--speed=4.5"});
  EXPECT_EQ(flags.GetInt("nodes", 0, ""), 120);
  EXPECT_DOUBLE_EQ(flags.GetDouble("speed", 0.0, ""), 4.5);
  flags.Finish();
}

TEST(FlagParser, DefaultsWhenAbsent) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetInt("nodes", 42, ""), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("speed", 2.5, ""), 2.5);
  EXPECT_EQ(flags.GetString("motion", "straight", ""), "straight");
  EXPECT_TRUE(flags.GetBool("normalize", true, ""));
  EXPECT_FALSE(flags.Provided("nodes"));
  flags.Finish();
}

TEST(FlagParser, BoolForms) {
  FlagParser flags =
      Parse({"--a=true", "--b=false", "--c=1", "--d=no"});
  EXPECT_TRUE(flags.GetBool("a", false, ""));
  EXPECT_FALSE(flags.GetBool("b", true, ""));
  EXPECT_TRUE(flags.GetBool("c", false, ""));
  EXPECT_FALSE(flags.GetBool("d", true, ""));
  flags.Finish();
}

TEST(FlagParser, RejectsMalformedInput) {
  EXPECT_THROW(Parse({"nodes", "5"}), InvalidArgument);  // missing --
  EXPECT_THROW(Parse({"--nodes"}), InvalidArgument);     // missing value
  FlagParser bad_int = Parse({"--nodes=abc"});
  EXPECT_THROW(bad_int.GetInt("nodes", 0, ""), InvalidArgument);
  FlagParser bad_bool = Parse({"--flag=maybe"});
  EXPECT_THROW(bad_bool.GetBool("flag", false, ""), InvalidArgument);
}

TEST(FlagParser, FinishCatchesUnknownFlags) {
  FlagParser flags = Parse({"--typo=1"});
  EXPECT_THROW(flags.Finish(), InvalidArgument);
}

TEST(FlagParser, RejectsIntegersOutsideIntRange) {
  // strtol accepts these, but a cast to int would wrap them to 240 and 1.
  for (const char* value : {"4294967536", "4294967297", "-2147483649",
                            "99999999999999999999"}) {
    FlagParser flags = Parse({"--nodes", value});
    EXPECT_THROW(flags.GetInt("nodes", 0, ""), InvalidArgument) << value;
  }
  FlagParser edge = Parse({"--nodes", "2147483647"});
  EXPECT_EQ(edge.GetInt("nodes", 0, ""), 2147483647);
}

TEST(FlagParser, BareHelpRequestsUsage) {
  FlagParser flags = Parse({"--help", "--nodes", "5"});
  flags.GetInt("nodes", 60, "number of sensor nodes");
  try {
    flags.Finish();
    ADD_FAILURE() << "Finish() ignored --help";
  } catch (const HelpRequested& help) {
    EXPECT_EQ(help.usage(), flags.Usage());
  }
}

TEST(FlagParser, UsageListsDeclaredFlags) {
  FlagParser flags = Parse({});
  flags.GetInt("nodes", 60, "number of sensor nodes");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("number of sensor nodes"), std::string::npos);
}

// ---- CLI commands ---------------------------------------------------------

int RunCli(std::vector<const char*> argv, std::string& out_text,
           std::string& err_text) {
  std::ostringstream out;
  std::ostringstream err;
  argv.insert(argv.begin(), "sparsedet");
  const int code = cli::Run(static_cast<int>(argv.size()), argv.data(), out,
                            err);
  out_text = out.str();
  err_text = err.str();
  return code;
}

TEST(Cli, AnalyzeReportsDetectionProbability) {
  std::string out;
  std::string err;
  const int code =
      RunCli({"analyze", "--nodes", "240", "--speed", "10"}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("P[detect] (M-S"), std::string::npos);
  EXPECT_NE(out.find("0.9781"), std::string::npos);
  EXPECT_NE(out.find("ms=4"), std::string::npos);
}

TEST(Cli, SimulateReportsWilsonInterval) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"simulate", "--nodes", "140", "--trials", "500", "--seed", "7"}, out,
      err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("trials            : 500"), std::string::npos);
  EXPECT_NE(out.find("Wilson CI"), std::string::npos);
}

TEST(Cli, SimulateIsSeedDeterministic) {
  std::string out1, out2, err;
  RunCli({"simulate", "--trials", "300", "--seed", "11"}, out1, err);
  RunCli({"simulate", "--trials", "300", "--seed", "11"}, out2, err);
  EXPECT_EQ(out1, out2);
}

TEST(Cli, PlanFindsFleetSize) {
  std::string out;
  std::string err;
  const int code = RunCli({"plan", "--target-detection", "0.8", "--speed",
                           "10", "--max-nodes", "400"},
                          out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("sensors reach P[detect]"), std::string::npos);
}

TEST(Cli, PlanFailsWhenTargetUnreachable) {
  std::string out;
  std::string err;
  const int code = RunCli({"plan", "--target-detection", "0.999",
                           "--max-nodes", "60", "--speed", "4"},
                          out, err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("no fleet"), std::string::npos);
}

TEST(Cli, FaTabulatesThresholds) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"fa", "--nodes", "100", "--pf", "0.001", "--trials", "300",
       "--max-k", "3"},
      out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("expected false reports per window: 2"),
            std::string::npos);
  EXPECT_NE(out.find("count-only"), std::string::npos);
}

TEST(Cli, UnknownCommandPrintsUsage) {
  std::string out;
  std::string err;
  const int code = RunCli({"frobnicate"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(Cli, NoCommandPrintsUsage) {
  std::ostringstream out;
  std::ostringstream err;
  const char* argv[] = {"sparsedet"};
  EXPECT_EQ(cli::Run(1, argv, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"help"}, out, err), 0);
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(Cli, BadFlagValueIsUserError) {
  std::string out;
  std::string err;
  const int code = RunCli({"analyze", "--nodes", "abc"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, UnknownFlagIsUserError) {
  std::string out;
  std::string err;
  const int code = RunCli({"analyze", "--frobs", "3"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
}

TEST(Cli, InvalidScenarioIsUserError) {
  std::string out;
  std::string err;
  // comm range violates the sparse premise.
  const int code = RunCli({"analyze", "--rc", "100"}, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, AnalyzeJsonOutputParsesKeyFields) {
  std::string out;
  std::string err;
  const int code =
      RunCli({"analyze", "--nodes", "240", "--format", "json"}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"nodes\":240"), std::string::npos) << out;
  EXPECT_NE(out.find("\"detection_probability\":0.978"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"ms\":4"), std::string::npos);
}

TEST(Cli, SimulateJsonOutput) {
  std::string out;
  std::string err;
  const int code = RunCli(
      {"simulate", "--trials", "200", "--format", "json"}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"trials\":200"), std::string::npos) << out;
  EXPECT_NE(out.find("\"ci_lo\""), std::string::npos);
}

TEST(Cli, BadFormatRejected) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"analyze", "--format", "xml"}, out, err), 2);
  EXPECT_NE(err.find("--format"), std::string::npos);
}

TEST(Cli, SweepProducesOneRowPerStep) {
  std::string out;
  std::string err;
  const int code = RunCli({"sweep", "--param", "nodes", "--from", "60",
                           "--to", "120", "--step", "30"},
                          out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("nodes"), std::string::npos);
  EXPECT_NE(out.find("60"), std::string::npos);
  EXPECT_NE(out.find("90"), std::string::npos);
  EXPECT_NE(out.find("120"), std::string::npos);
}

TEST(Cli, SweepUnknownParameterRejected) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"sweep", "--param", "frobs"}, out, err), 2);
  EXPECT_NE(err.find("unknown --param"), std::string::npos);
}

TEST(Cli, SweepWithSimulationColumn) {
  std::string out;
  std::string err;
  const int code = RunCli({"sweep", "--param", "k", "--from", "3", "--to",
                           "5", "--step", "2", "--trials", "200"},
                          out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("simulation"), std::string::npos);
}

TEST(Cli, SimulateKNodeRule) {
  std::string out1, out2, err;
  RunCli({"simulate", "--trials", "400", "--h", "1"}, out1, err);
  RunCli({"simulate", "--trials", "400", "--h", "4"}, out2, err);
  EXPECT_NE(out1, out2);  // stricter rule must change the count
}

// ---- Hardening: every malformed invocation must fail loudly ---------------

TEST(Cli, MalformedFlagValuesDiagnoseAndFailPerCommand) {
  const std::vector<std::vector<const char*>> cases = {
      {"simulate", "--trials", "abc"},
      {"simulate", "--motion", "teleport"},
      {"simulate", "--geometry", "spherical"},
      {"sweep", "--step", "0"},
      {"sweep", "--from", "100", "--to", "50"},
      {"sweep", "--param", "bogus"},
      // A step too small to advance the value: stopped by the point cap
      // before anything is evaluated, instead of looping forever.
      {"sweep", "--from", "60", "--to", "61", "--step", "1e-300"},
      {"analyze", "--nodes", "4294967536"},
      {"simulate", "--trials", "4294967297"},
      {"fa", "--max-k", "many"},
      {"plan", "--target-detection", "1.5"},
      {"latency", "--window", "oops"},
      {"trace", "--seed", "x"},
      {"batch", "--passes", "0"},
      {"batch", "--threads", "lots"},
      {"serve", "--cache-capacity", "big"},
  };
  for (const std::vector<const char*>& argv : cases) {
    std::string out;
    std::string err;
    const int code = RunCli(argv, out, err);
    EXPECT_EQ(code, 2) << "argv[0]=" << argv[0] << " err=" << err;
    EXPECT_NE(err.find("error:"), std::string::npos) << "argv[0]=" << argv[0];
  }
}

TEST(Cli, UnknownFlagFailsForEveryCommand) {
  // serve-tcp parses every flag before it binds, so this never serves.
  for (const char* command :
       {"analyze", "simulate", "plan", "fa", "sweep", "latency", "trace",
        "batch", "optimize", "adapt", "serve", "serve-tcp"}) {
    std::string out;
    std::string err;
    const int code = RunCli({command, "--no-such-flag", "1"}, out, err);
    EXPECT_EQ(code, 2) << command;
    EXPECT_NE(err.find("unknown flag"), std::string::npos) << command;
  }
  // The solver memo lives in memory only: there is no snapshot file flag.
  for (const char* command : {"optimize", "adapt"}) {
    std::string out;
    std::string err;
    const int code = RunCli({command, "--memo-snapshot", "x"}, out, err);
    EXPECT_EQ(code, 2) << command;
    EXPECT_NE(err.find("unknown flag: --memo-snapshot"), std::string::npos)
        << command << err;
  }
}

TEST(Cli, HelpListsFlagsForEveryCommand) {
  for (const char* command :
       {"analyze", "simulate", "plan", "fa", "sweep", "latency", "trace",
        "batch", "optimize", "adapt", "serve", "serve-tcp", "metrics-dump"}) {
    std::string out;
    std::string err;
    EXPECT_EQ(RunCli({command, "--help"}, out, err), 0) << command << err;
    EXPECT_NE(out.find("(default "), std::string::npos) << command;
    EXPECT_TRUE(err.empty()) << command << err;
  }
  std::string out;
  std::string err;
  ASSERT_EQ(RunCli({"analyze", "--help"}, out, err), 0);
  EXPECT_NE(out.find("--nodes <int>"), std::string::npos) << out;
  EXPECT_NE(out.find("--format <string>"), std::string::npos) << out;
}

TEST(Cli, UsageMentionsBatchAndServe) {
  std::string out;
  std::string err;
  EXPECT_EQ(RunCli({"help"}, out, err), 0);
  EXPECT_NE(out.find("batch"), std::string::npos);
  EXPECT_NE(out.find("serve"), std::string::npos);
}

// ---- batch / serve --------------------------------------------------------

class CliBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteRequests(const std::string& text) {
    std::ofstream file(path_);
    file << text;
  }

  int RunBatch(std::vector<const char*> extra, std::string& out_text,
               std::string& err_text) {
    std::vector<std::string> args = {"--input", path_};
    for (const char* a : extra) args.emplace_back(a);
    std::istringstream in;
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::CmdBatch(args, in, out, err);
    out_text = out.str();
    err_text = err.str();
    return code;
  }

  // Per-test path: ctest may run cases from this fixture in parallel
  // processes, so a shared fixed name would race.
  const std::string path_ =
      std::string("/tmp/sparsedet_cli_batch_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
};

TEST_F(CliBatchTest, EvaluatesFileAndEmitsStatsLine) {
  WriteRequests(
      R"({"id": "a", "op": "analyze", "params": {"nodes": 240}})"
      "\n"
      R"({"id": "b", "op": "analyze", "params": {"nodes": 240}})"
      "\n");
  std::string out;
  std::string err;
  const int code = RunBatch({}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(out.find("\"detection_probability\":0.978"), std::string::npos);
  EXPECT_NE(out.find("\"stats\":"), std::string::npos);
  EXPECT_NE(out.find("\"coalesced\":1"), std::string::npos);
}

TEST_F(CliBatchTest, SecondPassReportsCacheHits) {
  WriteRequests(
      R"({"op": "analyze", "params": {"nodes": 120}})"
      "\n");
  std::string out;
  std::string err;
  const int code = RunBatch({"--passes", "2"}, out, err);
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("\"hits\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"misses\":1"), std::string::npos) << out;
}

TEST_F(CliBatchTest, ThreadCountDoesNotChangeOutput) {
  WriteRequests(
      R"({"op": "sweep", "sweep": {"param": "nodes", "from": 60, "to": 180, "step": 40}})"
      "\n"
      R"({"op": "latency"})"
      "\n"
      R"({"op": "analyze", "params": {"nodes": 90}})"
      "\n");
  std::string out1, out8, err;
  EXPECT_EQ(RunBatch({"--threads", "1"}, out1, err), 0) << err;
  EXPECT_EQ(RunBatch({"--threads", "8"}, out8, err), 0) << err;
  EXPECT_EQ(out1, out8);
}

TEST_F(CliBatchTest, MissingInputFileIsUserError) {
  std::string out;
  std::string err;
  std::istringstream in;
  std::ostringstream os_out, os_err;
  const int code = cli::CmdBatch({"--input", "/nonexistent/nope.jsonl"}, in,
                                 os_out, os_err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(os_err.str().find("cannot open"), std::string::npos);
}

TEST_F(CliBatchTest, PassesOverStdinRejected) {
  std::istringstream in;
  std::ostringstream out, err;
  const int code = cli::CmdBatch({"--passes", "2"}, in, out, err);
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.str().find("seekable"), std::string::npos);
}

TEST_F(CliBatchTest, TraceFlagAttachesSpansToResponses) {
  WriteRequests(
      R"({"id": "t1", "op": "analyze", "params": {"nodes": 80}})"
      "\n"
      R"({"id": "t2", "op": "analyze", "params": {"nodes": 80}})"
      "\n");
  std::string plain, traced, err;
  EXPECT_EQ(RunBatch({}, plain, err), 0) << err;
  EXPECT_EQ(plain.find("\"trace\":"), std::string::npos);
  // Two passes: within a pass the duplicate request coalesces; the second
  // pass is served from the cache, so both provenances show up.
  EXPECT_EQ(RunBatch({"--trace", "true", "--passes", "2"}, traced, err), 0)
      << err;
  EXPECT_NE(traced.find("\"trace\":"), std::string::npos);
  EXPECT_NE(traced.find("\"trace_id\":1"), std::string::npos);
  EXPECT_NE(traced.find("\"source\":\"coalesced\""), std::string::npos);
  EXPECT_NE(traced.find("\"source\":\"cache_hit\""), std::string::npos);
}

TEST(CliServe, StatsCommandSnapshotFeedsMetricsDump) {
  // A serve session whose transcript is then re-rendered by metrics-dump,
  // the way an operator would pipe the two commands together.
  std::istringstream in(
      R"({"id": 1, "op": "analyze", "params": {"nodes": 100}})"
      "\n"
      R"({"id": 2, "op": "analyze", "params": {"nodes": 100}})"
      "\n"
      R"({"cmd": "stats"})"
      "\n");
  std::ostringstream serve_out, serve_err;
  ASSERT_EQ(cli::CmdServe({}, in, serve_out, serve_err), 0)
      << serve_err.str();
  EXPECT_NE(serve_out.str().find("\"metrics\":"), std::string::npos);

  std::istringstream table_in(serve_out.str());
  std::ostringstream table_out, table_err;
  ASSERT_EQ(cli::CmdMetricsDump({}, table_in, table_out, table_err), 0)
      << table_err.str();
  EXPECT_NE(table_out.str().find("engine_cache_hits_total"),
            std::string::npos);
  EXPECT_NE(table_out.str().find("sparsedet_phase_duration_ns"),
            std::string::npos);
  EXPECT_NE(table_out.str().find("phase=solve"), std::string::npos);

  std::istringstream prom_in(serve_out.str());
  std::ostringstream prom_out, prom_err;
  ASSERT_EQ(cli::CmdMetricsDump({"--format", "prometheus"}, prom_in,
                                prom_out, prom_err),
            0)
      << prom_err.str();
  EXPECT_NE(prom_out.str().find("# TYPE engine_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(prom_out.str().find("engine_cache_hits_total 1"),
            std::string::npos);
  EXPECT_NE(
      prom_out.str().find(
          "sparsedet_phase_duration_ns_bucket{phase=\"solve\",le="),
      std::string::npos);
}

TEST(CliMetricsDump, RejectsInputWithoutSnapshot) {
  std::istringstream in("{\"not\": \"metrics\"}\n");
  std::ostringstream out, err;
  EXPECT_EQ(cli::CmdMetricsDump({}, in, out, err), 2);
  EXPECT_NE(err.str().find("no metrics snapshot"), std::string::npos);
}

TEST(CliMetricsDump, RejectsUnknownFormat) {
  std::istringstream in;
  std::ostringstream out, err;
  EXPECT_EQ(cli::CmdMetricsDump({"--format", "xml"}, in, out, err), 2);
  EXPECT_NE(err.str().find("--format"), std::string::npos);
}

TEST(CliServe, AnswersRequestsFromStreamWithErrorIsolation) {
  std::istringstream in(
      R"({"id": 1, "op": "analyze", "params": {"nodes": 100}})"
      "\n"
      "not json\n"
      R"({"id": 3, "op": "analyze", "params": {"nodes": 100}})"
      "\n");
  std::ostringstream out, err;
  const int code = cli::CmdServe({"--stats", "true"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  int lines = 0;
  for (char c : out.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);  // 2 results + 1 error + stats
  EXPECT_NE(out.str().find("\"error\":"), std::string::npos);
  EXPECT_NE(out.str().find("\"hits\":1"), std::string::npos);
}

}  // namespace
}  // namespace sparsedet
