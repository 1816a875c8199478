// Tests for BatchEngine's async submission API (the TCP server's engine
// contract): each submitted line is called back exactly once, with its own
// response, byte-identical to what the synchronous serve loop prints for
// that line; callbacks come in completion order (a cache hit before
// SubmitLineAsync returns), not in submission order; command lines are
// answered at submission, so a stats line counts exactly the requests
// planned before it; oversized lines reject without planning; and
// DrainAsync / StopAsync return only after every callback.
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"

namespace sparsedet::engine {
namespace {

std::vector<std::string> MakeLines(int n) {
  std::vector<std::string> lines;
  for (int i = 0; i < n; ++i) {
    lines.push_back(R"({"id":)" + std::to_string(i) +
                    R"(,"op":"analyze","params":{"nodes":)" +
                    std::to_string(60 + 20 * (i % 5)) + "}}");
  }
  return lines;
}

// The stdio serve loop's response to each line, by line index.
std::vector<std::string> ServeResponses(const std::vector<std::string>& lines,
                                        const EngineOptions& options) {
  std::ostringstream input;
  for (const std::string& line : lines) input << line << "\n";
  BatchEngine engine(options);
  std::istringstream in(input.str());
  std::ostringstream out;
  engine.Serve(in, out);
  std::vector<std::string> responses;
  std::istringstream out_lines(out.str());
  std::string line;
  while (std::getline(out_lines, line)) responses.push_back(line);
  return responses;
}

// Collects async callbacks by line index, counting calls per line.
class Recorder {
 public:
  explicit Recorder(std::size_t n) : responses_(n), calls_(n, 0) {}

  BatchEngine::ResponseCallback For(std::size_t index) {
    return [this, index](std::string response) {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_[index] = std::move(response);
      ++calls_[index];
    };
  }

  // Lines answered so far (each call counted).
  int total_calls() {
    std::lock_guard<std::mutex> lock(mutex_);
    int total = 0;
    for (int calls : calls_) total += calls;
    return total;
  }
  int calls(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_[index];
  }
  std::string response(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    return responses_[index];
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> responses_;
  std::vector<int> calls_;
};

TEST(EngineAsync, CallbacksFireInSubmissionOrder) {
  // The name is historical: callbacks fire in completion order. Each line
  // is called back exactly once, with its own response.
  EngineOptions options;
  options.threads = 4;  // workers complete requests concurrently
  BatchEngine engine(options);
  engine.StartAsync();

  const std::vector<std::string> lines = MakeLines(40);
  Recorder recorder(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr,
                           /*oversized=*/false, recorder.For(i));
  }
  engine.DrainAsync();
  ASSERT_EQ(recorder.total_calls(), static_cast<int>(lines.size()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(recorder.calls(i), 1) << "line " << i;
    const std::string id_field = "{\"id\":" + std::to_string(i) + ",";
    EXPECT_EQ(recorder.response(i).rfind(id_field, 0), 0u)
        << "line " << i << " got " << recorder.response(i);
  }
}

TEST(EngineAsync, MatchesSynchronousServeByteForByte) {
  // Repeated scenarios: the first five compute, the rest coalesce onto
  // them or hit the cache, so all three ways of answering are compared.
  const std::vector<std::string> lines = MakeLines(20);
  EngineOptions options;
  options.threads = 2;
  const std::vector<std::string> expected = ServeResponses(lines, options);
  ASSERT_EQ(expected.size(), lines.size());

  BatchEngine engine(options);
  engine.StartAsync();
  Recorder recorder(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr, false,
                           recorder.For(i));
  }
  engine.DrainAsync();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(recorder.calls(i), 1) << "line " << i;
    EXPECT_EQ(recorder.response(i), expected[i]) << "line " << i;
  }
}

TEST(EngineAsync, CommandLineAnswersInFifoPosition) {
  // The name is historical: a command line is answered at submission, on
  // the submitting thread, counting the requests planned before it — not
  // those submitted after it.
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  engine.StartAsync();

  Recorder recorder(3);
  engine.SubmitLineAsync(R"({"id":1,"op":"analyze"})", 1, nullptr, false,
                         recorder.For(0));
  engine.SubmitLineAsync(R"({"cmd":"stats"})", 2, nullptr, false,
                         recorder.For(1));
  EXPECT_EQ(recorder.calls(1), 1) << "stats must answer before returning";
  engine.SubmitLineAsync(R"({"id":2,"op":"analyze"})", 3, nullptr, false,
                         recorder.For(2));
  engine.DrainAsync();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(recorder.calls(i), 1);
  EXPECT_EQ(recorder.response(0).rfind(R"({"id":1,)", 0), 0u);
  EXPECT_EQ(recorder.response(1).rfind(R"({"stats":)", 0), 0u);
  EXPECT_NE(recorder.response(1).find("\"requests\":1,"), std::string::npos)
      << recorder.response(1);
  EXPECT_EQ(recorder.response(2).rfind(R"({"id":2,)", 0), 0u);
}

TEST(EngineAsync, CacheHitAnswersBeforeSubmitReturns) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  engine.StartAsync();
  const std::string line =
      R"({"id":"warm","op":"analyze","params":{"nodes":140}})";

  Recorder recorder(2);
  engine.SubmitLineAsync(line, 1, nullptr, false, recorder.For(0));
  engine.DrainAsync();
  ASSERT_EQ(recorder.calls(0), 1);

  // Nothing to compute: answered on this thread, before the call returns,
  // from the cache entry's bytes — the same bytes as the computed answer.
  engine.SubmitLineAsync(line, 2, nullptr, false, recorder.For(1));
  EXPECT_EQ(recorder.calls(1), 1);
  EXPECT_EQ(recorder.response(1), recorder.response(0));
  EXPECT_EQ(engine.cache().counters().hits, 1u);
  engine.DrainAsync();
  EXPECT_EQ(recorder.calls(1), 1);
}

TEST(EngineAsync, OversizedFlagRejectsWithoutPlanning) {
  EngineOptions options;
  options.threads = 1;
  options.max_line_bytes = 64;
  BatchEngine engine(options);
  engine.StartAsync();

  std::mutex mutex;
  std::vector<std::string> responses;
  engine.SubmitLineAsync(std::string(64, 'x'), 1, nullptr,
                         /*oversized=*/true, [&](std::string response) {
                           std::lock_guard<std::mutex> lock(mutex);
                           responses.push_back(std::move(response));
                         });
  engine.DrainAsync();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("line_too_long"), std::string::npos);
}

TEST(EngineAsync, StopAnswersEveryQueuedLineInOrderAndRestarts) {
  // The name is historical: StopAsync returns only after every line has
  // been called back, each exactly once with its own response.
  EngineOptions options;
  options.threads = 4;
  BatchEngine engine(options);
  engine.StartAsync();

  const std::vector<std::string> lines = MakeLines(20);
  const std::vector<std::string> expected = ServeResponses(lines, options);
  ASSERT_EQ(expected.size(), lines.size());
  Recorder recorder(lines.size() + 1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr,
                           /*oversized=*/false, recorder.For(i));
  }
  engine.StopAsync();  // no DrainAsync first: stopping must not drop lines
  ASSERT_EQ(recorder.total_calls(), static_cast<int>(lines.size()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(recorder.calls(i), 1) << "line " << i;
    EXPECT_EQ(recorder.response(i), expected[i]) << "line " << i;
  }

  engine.StartAsync();
  engine.SubmitLineAsync(R"({"id":99,"op":"analyze"})", 21, nullptr, false,
                         recorder.For(lines.size()));
  engine.DrainAsync();
  ASSERT_EQ(recorder.total_calls(), static_cast<int>(lines.size()) + 1);
  EXPECT_EQ(recorder.response(lines.size()).rfind(R"({"id":99,)", 0), 0u)
      << recorder.response(lines.size());
}

TEST(EngineAsync, DrainWithNothingSubmittedReturnsImmediately) {
  BatchEngine engine(EngineOptions{});
  engine.StartAsync();
  engine.DrainAsync();  // must not hang
  engine.StopAsync();
  engine.StartAsync();  // restartable after a stop
  engine.DrainAsync();
}

}  // namespace
}  // namespace sparsedet::engine
