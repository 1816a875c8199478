// Byte-for-byte CLI transcript: every one-shot command, batch over the
// example study and serve over the optimize/adapt studies, compared with the
// committed tests/golden/cli_transcript.txt. The other CLI tests check
// substrings; this one pins whole outputs so a refactor of the plumbing
// underneath cannot change a single byte unnoticed.
//
// Each case renders as
//
//   $ sparsedet <args> [< <stdin file>]
//   <stdout>
//   [exit <code>]
//
// On a mismatch the whole transcript is written to the test temp
// directory; after an intended output change, review its diff against the
// golden file and copy it over.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.h"

namespace sparsedet {
namespace {

struct GoldenCase {
  std::vector<std::string> args;  // args[0] is the command
  std::string stdin_file;         // relative to the source tree, or ""
};

const std::vector<GoldenCase>& Cases() {
  static const std::vector<GoldenCase> cases = {
      {{"analyze"}, ""},
      {{"analyze", "--format", "json"}, ""},
      {{"analyze", "--nodes", "120", "--speed", "20", "--gh", "4", "--g", "4",
        "--format", "json"},
       ""},
      {{"simulate", "--trials", "400", "--seed", "7"}, ""},
      {{"simulate", "--trials", "300", "--motion", "random-walk",
        "--geometry", "planar", "--format", "json"},
       ""},
      {{"simulate", "--trials", "300", "--h", "2", "--pf", "0.001",
        "--reliability", "0.9", "--format", "json"},
       ""},
      {{"sweep"}, ""},
      {{"sweep", "--param", "pd", "--from", "0.5", "--to", "0.9", "--step",
        "0.2"},
       ""},
      {{"sweep", "--param", "nodes", "--from", "60", "--to", "180", "--step",
        "40", "--trials", "200"},
       ""},
      {{"latency"}, ""},
      {{"latency", "--nodes", "120", "--window", "12"}, ""},
      {{"fa", "--trials", "500", "--max-k", "4"}, ""},
      {{"optimize", "--search-nodes", "60:160:20", "--search-k", "3:6",
        "--min-detection", "0.8"},
       ""},
      {{"optimize", "--mode", "frontier", "--objective", "min_energy",
        "--search-nodes", "60:180:40", "--search-duty", "0.25:1:0.25",
        "--min-detection", "0.5", "--pf", "0.001", "--max-fa", "0.5"},
       ""},
      {{"adapt", "--nodes", "60", "--window", "10", "--k", "3",
        "--mean-lifetime-s", "40000", "--horizon-epochs", "4",
        "--min-detection", "0.3", "--pf", "0.001"},
       ""},
      {{"adapt", "--mode", "closed_loop", "--nodes", "100",
        "--mean-lifetime-s", "30000", "--horizon-epochs", "3", "--search-k",
        "2:4", "--trials", "100", "--seed", "5", "--min-detection", "0.5"},
       ""},
      {{"batch"}, "examples/batch_study.jsonl"},
      {{"serve"}, "examples/optimize_study.jsonl"},
      {{"serve"}, "examples/adapt_study.jsonl"},
  };
  return cases;
}

std::string SourcePath(const std::string& relative) {
  return std::string(SPARSEDET_SOURCE_DIR) + "/" + relative;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::string Render(const GoldenCase& c) {
  std::ostringstream out;
  std::ostringstream err;
  int code = 0;
  if (!c.stdin_file.empty()) {
    std::ifstream in(SourcePath(c.stdin_file));
    const std::vector<std::string> rest(c.args.begin() + 1, c.args.end());
    code = c.args[0] == "batch" ? cli::CmdBatch(rest, in, out, err)
                                : cli::CmdServe(rest, in, out, err);
  } else {
    std::vector<const char*> argv{"sparsedet"};
    for (const std::string& a : c.args) argv.push_back(a.c_str());
    code = cli::Run(static_cast<int>(argv.size()), argv.data(), out, err);
  }
  std::ostringstream block;
  block << "$ sparsedet";
  for (const std::string& a : c.args) block << ' ' << a;
  if (!c.stdin_file.empty()) block << " < " << c.stdin_file;
  block << '\n' << out.str() << "[exit " << code << "]\n";
  return block.str();
}

TEST(CliGolden, TranscriptIsByteIdentical) {
  const std::string golden =
      ReadFile(SourcePath("tests/golden/cli_transcript.txt"));
  ASSERT_FALSE(golden.empty()) << "missing tests/golden/cli_transcript.txt";
  std::string transcript;
  for (const GoldenCase& c : Cases()) {
    const std::string block = Render(c);
    // Per-case comparison first, so a failure names the command.
    const std::string header = block.substr(0, block.find('\n') + 1);
    const std::size_t at = golden.find(header);
    EXPECT_TRUE(at != std::string::npos &&
                golden.compare(at, block.size(), block) == 0)
        << "output drifted for " << header << "got:\n"
        << block;
    transcript += block;
  }
  if (transcript != golden) {
    const std::string actual = ::testing::TempDir() + "cli_transcript.txt";
    std::ofstream(actual) << transcript;
    ADD_FAILURE() << "transcript differs from the golden file; written to "
                  << actual;
  }
}

}  // namespace
}  // namespace sparsedet
