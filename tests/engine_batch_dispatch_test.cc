// Edge cases for the engine's group dispatch: a request's small work units
// are bucketed into chunked pool tasks instead of one task per unit
// (engine.cc FlushSubmits). The contract under test is that grouping
// changes SCHEDULING ONLY — for every batch shape, the response stream is
// byte-identical to the serial (one-worker) engine, errors stay
// per-request, and cancellation/fault recovery behave exactly as they do
// under per-unit dispatch.
#include <cstdint>
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

std::string RunBatch(const EngineOptions& options, const std::string& input) {
  BatchEngine engine(options);
  std::istringstream in(input);
  std::ostringstream out;
  engine.RunBatch(in, out);
  return out.str();
}

EngineOptions Opts(int threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

std::uint64_t CounterValue(const BatchEngine& engine, const char* name) {
  for (const auto& counter : engine.MetricsSnapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// A batch of many tiny units: 6 sweeps x 5 points, every unit far below
// the grouping threshold, plus some repeats so coalescing and grouping
// interact.
std::string TinySweepBatch() {
  std::string batch;
  for (int i = 0; i < 6; ++i) {
    const int from = 60 + 10 * (i % 3);
    batch += R"({"id":"sw)" + std::to_string(i) +
             R"(","op":"sweep","sweep":{"param":"nodes","from":)" +
             std::to_string(from) + R"(,"to":)" + std::to_string(from + 80) +
             R"(,"step":20}})" + "\n";
  }
  return batch;
}

// ---- byte-identity across dispatch modes ------------------------------

TEST(GroupDispatch, SingleRequestBatchMatchesSerial) {
  const std::string batch = R"({"id":"only","op":"analyze"})" "\n";
  const std::string grouped = RunBatch(Opts(4), batch);
  const std::string serial = RunBatch(Opts(1), batch);
  EXPECT_EQ(grouped, serial);
  const JsonValue response = ParseJson(Lines(grouped).at(0));
  EXPECT_EQ(response.Find("id")->AsString(), "only");
  EXPECT_NE(response.Find("result"), nullptr);
}

TEST(GroupDispatch, AllTinyBatchIsByteIdenticalAcrossModes) {
  const std::string batch = TinySweepBatch();
  const std::string reference = RunBatch(Opts(1), batch);
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(RunBatch(Opts(threads), batch), reference)
        << "threads=" << threads;
  }
}

TEST(GroupDispatch, MixedTinyAndHugeUnitsMatchSerial) {
  // The sweeps' points share group tasks, the lone analyze is submitted
  // alone, and the 5000-trial simulate is above the grouping threshold;
  // the mix must match serial.
  const std::string batch =
      TinySweepBatch() +
      R"({"id":"big","op":"analyze","params":{"nodes":240}})" "\n" +
      R"({"id":"mc","op":"simulate","params":{"nodes":120},)"
      R"("sim":{"trials":5000,"seed":11}})" "\n";
  EXPECT_EQ(RunBatch(Opts(4), batch), RunBatch(Opts(1), batch));
}

TEST(GroupDispatch, ResponsesStayInInputOrderUnderGrouping) {
  const std::string batch = TinySweepBatch();
  const std::vector<std::string> lines =
      Lines(RunBatch(Opts(8), batch));
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(ParseJson(lines[i]).Find("id")->AsString(),
              "sw" + std::to_string(i));
  }
}

// ---- cancellation inside a group --------------------------------------

TEST(GroupDispatch, DeadlinedUnitInsideGroupCancelsOnlyItself) {
  // A deadline-bearing sweep between two small requests. Its five points
  // are each below the grouping threshold, so they share one group task,
  // and each one solves for about half a second at these caps. The group
  // task chains a per-unit token off the request token, so the deadline
  // cancels the running point and the ones queued behind it, while the
  // neighbouring requests complete normally. One worker runs the tasks in
  // order, so "post" is answered only after the group task has finished
  // and its cancellations are counted.
  const std::string batch =
      R"({"id":"pre","op":"analyze","params":{"nodes":90}})" "\n" +
      std::string(R"({"id":"slow","op":"sweep","params":{"nodes":2400},)"
                  R"("options":{"gh":2400,"g":2400},)"
                  R"("sweep":{"param":"nodes","from":2400,"to":2600,)"
                  R"("step":50},"deadline_ms":100})") +
      "\n" +
      R"({"id":"post","op":"analyze","params":{"nodes":110}})" "\n";
  EngineOptions options = Opts(1);
  options.retry.max_attempts = 1;
  BatchEngine engine(options);
  std::istringstream in(batch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue pre = ParseJson(lines[0]);
  const JsonValue slow = ParseJson(lines[1]);
  const JsonValue post = ParseJson(lines[2]);
  EXPECT_NE(pre.Find("result"), nullptr) << lines[0];
  ASSERT_NE(slow.Find("error_code"), nullptr) << lines[1];
  EXPECT_EQ(slow.Find("error_code")->AsString(), "deadline_exceeded");
  EXPECT_NE(post.Find("result"), nullptr) << lines[2];
  // Only a chained token lets a grouped point observe the deadline.
  EXPECT_GE(CounterValue(engine, "engine_cancelled_units_total"), 1u);
}

// ---- fault recovery inside a group ------------------------------------

TEST(GroupDispatch, InjectedWorkerAbortsResubmitGroupMates) {
  // Worker aborts tear down the thread mid-chunk; FlushSubmits' group task
  // must resubmit the not-yet-run group-mates individually before the
  // abort propagates, so every request still resolves — with output
  // byte-identical to an undisturbed serial run.
  const std::string batch = TinySweepBatch();
  const std::string reference = RunBatch(Opts(1), batch);

  EngineOptions faulty = Opts(2);
  // 6 faults max against 8 attempts per unit: recovery is guaranteed, so
  // any non-identical output is a dispatch bug, not fault-budget noise.
  faulty.retry.max_attempts = 8;
  faulty.retry.base_delay_ms = 1;
  faulty.fault_config =
      R"({"abort_every":3,"fail_every":5,"delay_ms":1,"max_faults":6})";
  BatchEngine engine(faulty);
  std::istringstream in(batch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  EXPECT_EQ(out.str(), reference);
  EXPECT_GE(CounterValue(engine, "engine_injected_faults_total"), 6u);
}

TEST(GroupDispatch, WatchdogArmedBypassesGroupingButStaysIdentical) {
  // With a watchdog configured the engine must fall back to per-unit
  // dispatch (a grouped chunk would hide per-unit liveness); the output
  // contract is unchanged.
  const std::string batch = TinySweepBatch();
  const std::string reference = RunBatch(Opts(1), batch);
  EngineOptions watched = Opts(2);
  watched.watchdog_stuck_ms = 60000;  // armed, far from firing
  EXPECT_EQ(RunBatch(watched, batch), reference);
}

}  // namespace
}  // namespace sparsedet::engine
