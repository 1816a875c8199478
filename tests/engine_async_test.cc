// Tests for BatchEngine's async submission API (the TCP server's engine
// contract): callbacks fire in global submission order, interleaved
// command lines answer in their FIFO position, oversized lines reject
// without planning, responses are byte-identical to the synchronous serve
// loop, DrainAsync blocks until every submitted line is answered, and
// StopAsync answers every line still queued before it returns.
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

TEST(EngineAsync, CallbacksFireInSubmissionOrder) {
  EngineOptions options;
  options.threads = 4;  // concurrent workers must not reorder emissions
  BatchEngine engine(options);
  engine.StartAsync();

  const std::vector<std::string> lines = MakeLines(40);
  std::mutex mutex;
  std::vector<std::string> responses;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr,
                           /*oversized=*/false, [&](std::string response) {
                             std::lock_guard<std::mutex> lock(mutex);
                             responses.push_back(std::move(response));
                           });
  }
  engine.DrainAsync();
  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::string id_field = "\"id\":" + std::to_string(i) + ",";
    EXPECT_NE(responses[i].find(id_field), std::string::npos)
        << "response " << i << " out of order: " << responses[i];
  }
}

TEST(EngineAsync, MatchesSynchronousServeByteForByte) {
  const std::vector<std::string> lines = MakeLines(20);
  std::ostringstream stream_input;
  for (const std::string& line : lines) stream_input << line << "\n";

  EngineOptions options;
  options.threads = 2;
  std::string async_output;
  {
    BatchEngine engine(options);
    engine.StartAsync();
    std::mutex mutex;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr,
                             false, [&](std::string response) {
                               std::lock_guard<std::mutex> lock(mutex);
                               async_output += response;
                               async_output += '\n';
                             });
    }
    engine.DrainAsync();
  }
  std::string sync_output;
  {
    BatchEngine engine(options);
    std::istringstream in(stream_input.str());
    std::ostringstream out;
    engine.Serve(in, out);
    sync_output = out.str();
  }
  EXPECT_EQ(async_output, sync_output);
}

TEST(EngineAsync, CommandLineAnswersInFifoPosition) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  engine.StartAsync();

  std::mutex mutex;
  std::vector<std::string> responses;
  const auto record = [&](std::string response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(std::move(response));
  };
  engine.SubmitLineAsync(R"({"id":1,"op":"analyze"})", 1, nullptr, false,
                         record);
  engine.SubmitLineAsync(R"({"cmd":"stats"})", 2, nullptr, false, record);
  engine.SubmitLineAsync(R"({"id":2,"op":"analyze"})", 3, nullptr, false,
                         record);
  engine.DrainAsync();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(responses[1].find("\"stats\""), std::string::npos);
  // Requests plan at submission, so the stats line (rendered at emission)
  // has counted both neighbors.
  EXPECT_NE(responses[1].find("\"requests\":2"), std::string::npos);
  EXPECT_NE(responses[2].find("\"id\":2"), std::string::npos);
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
  EngineOptions options;
  options.threads = 4;
  BatchEngine engine(options);
  engine.StartAsync();

  const std::vector<std::string> lines = MakeLines(20);
  std::mutex mutex;
  std::vector<std::string> responses;
  const auto record = [&](std::string response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(std::move(response));
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine.SubmitLineAsync(lines[i], static_cast<int>(i + 1), nullptr,
                           /*oversized=*/false, record);
  }
  engine.StopAsync();  // no DrainAsync first: stopping must not drop lines
  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::string id_field = "\"id\":" + std::to_string(i) + ",";
    EXPECT_NE(responses[i].find(id_field), std::string::npos)
        << "response " << i << " out of order: " << responses[i];
  }

  engine.StartAsync();
  engine.SubmitLineAsync(R"({"id":99,"op":"analyze"})", 21, nullptr, false,
                         record);
  engine.DrainAsync();
  ASSERT_EQ(responses.size(), lines.size() + 1);
  EXPECT_NE(responses.back().find("\"id\":99,"), std::string::npos)
      << responses.back();
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
