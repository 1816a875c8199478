// End-to-end resilience tests for the batch engine: deadlines with
// cooperative cancellation, graceful degradation, fault-injection
// recovery, watchdog respawn, backpressure and input hardening.
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "engine/engine.h"
#include "obs/metrics.h"

namespace sparsedet::engine {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string RunBatch(BatchEngine& engine, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  engine.RunBatch(in, out);
  return out.str();
}

std::uint64_t CounterValue(const BatchEngine& engine,
                           const std::string& name) {
  for (const auto& counter : engine.MetricsSnapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

// An analyze request whose M-S state space is enormous: uncancelled it
// would run for minutes, so completing promptly proves the deadline both
// fires and actually stops the computation.
std::string HugeAnalyze(const std::string& extra) {
  return R"({"id":"huge","op":"analyze",)"
         R"("params":{"nodes":20000},"options":{"gh":6000,"g":6000})" +
         (extra.empty() ? "" : "," + extra) + "}";
}

TEST(EngineDeadline, ExceededReturnsStructuredErrorPromptly) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const std::string output = RunBatch(
      engine, HugeAnalyze(R"("deadline_ms":200)") + "\n" +
                  R"({"id":"after","op":"analyze"})" + "\n");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound: minutes uncancelled, ~200 ms when cancellation works.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);

  const std::vector<std::string> lines = Lines(output);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = ParseJson(lines[0]);
  EXPECT_EQ(first.Find("id")->AsString(), "huge");
  ASSERT_NE(first.Find("error_code"), nullptr);
  EXPECT_EQ(first.Find("error_code")->AsString(), "deadline_exceeded");
  // The timed-out request never blocks the next one.
  const JsonValue second = ParseJson(lines[1]);
  EXPECT_EQ(second.Find("id")->AsString(), "after");
  EXPECT_NE(second.Find("result"), nullptr);
  EXPECT_GE(CounterValue(engine, "engine_deadline_exceeded_total"), 1u);
}

TEST(EngineDeadline, DegradeFallsBackToClosedForm) {
  EngineOptions options;
  options.threads = 1;
  BatchEngine engine(options);
  const std::string output = RunBatch(
      engine, HugeAnalyze(R"("deadline_ms":200,"degrade":true)") + "\n");
  const std::vector<std::string> lines = Lines(output);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = ParseJson(lines[0]);
  ASSERT_NE(response.Find("degraded"), nullptr) << lines[0];
  EXPECT_TRUE(response.Find("degraded")->AsBool());
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->Find("detection_probability"), nullptr);
  EXPECT_NE(result->Find("degraded_mode"), nullptr);
  EXPECT_GE(CounterValue(engine, "engine_degraded_total"), 1u);
}

TEST(EngineDeadline, TimedOutRequestResolvesCleanlyOnRetry) {
  // Satellite regression: nothing from a timed-out request may pollute the
  // result cache, so re-issuing the same request without a deadline must
  // recompute and succeed.
  EngineOptions options;
  options.threads = 1;
  BatchEngine engine(options);
  const std::string request =
      R"({"id":"mc","op":"simulate",)"
      R"("sim":{"trials":20000},"params":{"nodes":120})";
  const std::string timed_out =
      RunBatch(engine, request + R"(,"deadline_ms":30})" + "\n");
  const JsonValue first = ParseJson(Lines(timed_out)[0]);
  ASSERT_NE(first.Find("error_code"), nullptr) << timed_out;
  EXPECT_EQ(first.Find("error_code")->AsString(), "deadline_exceeded");

  const std::string retried = RunBatch(engine, request + "}\n");
  const JsonValue second = ParseJson(Lines(retried)[0]);
  ASSERT_NE(second.Find("result"), nullptr) << retried;
  EXPECT_EQ(second.Find("error"), nullptr);
  // The successful solve was a genuine recomputation, not a cache hit.
  EXPECT_EQ(engine.cache().counters().hits, 0u);
}

TEST(EngineDeadline, GenerousDeadlineOutputMatchesNoDeadline) {
  const std::string plain = R"({"id":1,"op":"analyze"})";
  const std::string deadlined =
      R"({"id":1,"op":"analyze","deadline_ms":600000})";
  EngineOptions options;
  options.threads = 1;
  BatchEngine a(options);
  BatchEngine b(options);
  EXPECT_EQ(RunBatch(a, plain + "\n"), RunBatch(b, deadlined + "\n"));
}

TEST(EngineFaults, PoolRecoversFromInjectedAbortsAndFailures) {
  EngineOptions options;
  options.threads = 2;
  options.retry.max_attempts = 8;
  options.retry.base_delay_ms = 1;
  options.fault_config =
      R"({"fail_every":2,"abort_every":3,"delay_every":5,)"
      R"("delay_ms":1,"max_faults":6})";
  BatchEngine engine(options);

  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += R"({"id":)" + std::to_string(i) +
             R"(,"op":"analyze","params":{"nodes":)" +
             std::to_string(60 + i * 20) + "}}\n";
  }
  const std::vector<std::string> lines = Lines(RunBatch(engine, input));
  ASSERT_EQ(lines.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const JsonValue response = ParseJson(lines[i]);
    // Exactly N responses, in input order, all successful.
    EXPECT_EQ(response.Find("id")->AsDouble(), i) << lines[i];
    EXPECT_NE(response.Find("result"), nullptr) << lines[i];
  }
  EXPECT_GE(CounterValue(engine, "engine_injected_faults_total"), 6u);
  EXPECT_GE(CounterValue(engine, "engine_unit_retries_total"), 1u);
  EXPECT_GE(CounterValue(engine, "engine_worker_aborts_total"), 1u);
  EXPECT_GE(CounterValue(engine, "engine_worker_respawns_total"), 1u);
}

TEST(EngineFaults, RetriesExhaustedYieldsStructuredError) {
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 1;
  options.fault_config = R"({"fail_every":1})";  // every attempt fails
  BatchEngine engine(options);
  const std::vector<std::string> lines =
      Lines(RunBatch(engine, R"({"id":"doomed","op":"analyze"})" "\n"));
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = ParseJson(lines[0]);
  ASSERT_NE(response.Find("error_code"), nullptr) << lines[0];
  EXPECT_EQ(response.Find("error_code")->AsString(), "retries_exhausted");
}

TEST(EngineBackpressure, OverloadedRequestsAreRejectedInOrder) {
  EngineOptions options;
  options.threads = 1;
  options.max_queue = 2;
  BatchEngine engine(options);

  std::istringstream in(
      // A wide sweep: far more units than max_queue allows.
      R"({"id":"wide","op":"sweep",)"
      R"("sweep":{"param":"nodes","from":60,"to":2040,"step":20}})"
      "\n"
      R"({"id":"after","op":"analyze"})"
      "\n");
  std::ostringstream out;
  engine.Serve(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue rejected = ParseJson(lines[0]);
  EXPECT_EQ(rejected.Find("id")->AsString(), "wide");
  ASSERT_NE(rejected.Find("error_code"), nullptr) << lines[0];
  EXPECT_EQ(rejected.Find("error_code")->AsString(), "overloaded");
  // The next (small) request is served normally once the queue drains.
  const JsonValue accepted = ParseJson(lines[1]);
  EXPECT_EQ(accepted.Find("id")->AsString(), "after");
  EXPECT_NE(accepted.Find("result"), nullptr) << lines[1];
  EXPECT_GE(CounterValue(engine, "engine_overloaded_total"), 1u);
}

TEST(EngineWatchdog, StuckUnitIsCancelledWithStructuredError) {
  EngineOptions options;
  options.threads = 1;
  options.watchdog_stuck_ms = 100;
  options.retry.max_attempts = 1;  // no retry: surface the cancellation
  BatchEngine engine(options);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> lines =
      Lines(RunBatch(engine, HugeAnalyze("") + "\n"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue response = ParseJson(lines[0]);
  ASSERT_NE(response.Find("error_code"), nullptr) << lines[0];
  EXPECT_EQ(response.Find("error_code")->AsString(), "watchdog_cancelled");
  EXPECT_GE(CounterValue(engine, "engine_watchdog_cancels_total"), 1u);
}

TEST(EngineServe, StatsCommandInterleavesWithCancellations) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  std::istringstream in(HugeAnalyze(R"("deadline_ms":150)") + "\n" +
                        R"({"cmd":"stats"})" + "\n" +
                        R"({"id":"ok","op":"analyze"})" + "\n" +
                        R"({"cmd":"stats"})" + "\n");
  std::ostringstream out;
  engine.Serve(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(ParseJson(lines[0]).Find("error_code")->AsString(),
            "deadline_exceeded");
  EXPECT_NE(ParseJson(lines[1]).Find("stats"), nullptr);
  EXPECT_NE(ParseJson(lines[2]).Find("result"), nullptr);
  const JsonValue last = ParseJson(lines[3]);
  ASSERT_NE(last.Find("stats"), nullptr);
  // The stats line reflects the earlier cancellation.
  EXPECT_EQ(last.Find("stats")->Find("errors")->AsDouble(), 1.0);
}

TEST(EngineInput, OversizedLineRejectedWithStructuredError) {
  EngineOptions options;
  options.threads = 1;
  options.max_line_bytes = 64;
  BatchEngine engine(options);
  std::string big = R"({"id":"big","op":"analyze","params":{"nodes":60)";
  big.append(200, ' ');
  big += "}}";
  const std::vector<std::string> lines = Lines(
      RunBatch(engine, big + "\n" + R"({"id":"ok","op":"analyze"})" + "\n"));
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = ParseJson(lines[0]);
  ASSERT_NE(first.Find("error_code"), nullptr) << lines[0];
  EXPECT_EQ(first.Find("error_code")->AsString(), "line_too_long");
  EXPECT_NE(ParseJson(lines[1]).Find("result"), nullptr);
  EXPECT_GE(CounterValue(engine, "engine_rejected_lines_total"), 1u);
}

TEST(EngineInput, DeeplyNestedJsonRejectedPerRequest) {
  EngineOptions options;
  options.threads = 1;
  BatchEngine engine(options);
  // 80 levels against the fixed input-line bound of 64 (kMaxLineJsonDepth).
  std::string deep = R"({"id":"deep","op":"analyze","params")";
  deep += ":";
  for (int i = 0; i < 80; ++i) deep += R"({"nodes")" ":";
  deep += "60";
  for (int i = 0; i < 80; ++i) deep += "}";
  deep += "}";
  const std::vector<std::string> lines = Lines(
      RunBatch(engine, deep + "\n" + R"({"id":"ok","op":"analyze"})" + "\n"));
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = ParseJson(lines[0]);
  ASSERT_NE(first.Find("error"), nullptr);
  EXPECT_NE(first.Find("error")->AsString().find("nesting"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(ParseJson(lines[1]).Find("result"), nullptr);
}

TEST(EngineRequest, RejectsInvalidDeadlineAndDegrade) {
  EngineOptions options;
  options.threads = 1;
  BatchEngine engine(options);
  const std::vector<std::string> lines = Lines(RunBatch(
      engine, R"({"id":1,"op":"analyze","deadline_ms":-5})" "\n"
              R"({"id":2,"op":"analyze","deadline_ms":"soon"})" "\n"
              R"({"id":3,"op":"analyze","degrade":"yes"})" "\n"));
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_NE(ParseJson(line).Find("error"), nullptr) << line;
  }
}

}  // namespace
}  // namespace sparsedet::engine
