#include "opt/backend.h"

#include <condition_variable>
#include <mutex>
#include <sstream>

#include "common/check.h"
#include "common/error.h"
#include "engine/request.h"

namespace sparsedet::opt {
namespace {

std::vector<JsonValue> ParseResponses(const std::vector<std::string>& raw,
                                      std::size_t expected) {
  SPARSEDET_CHECK(raw.size() == expected,
                  "engine returned a different number of responses than "
                  "requests submitted");
  std::vector<JsonValue> responses;
  responses.reserve(raw.size());
  for (const std::string& line : raw) {
    responses.push_back(ParseJson(line));
  }
  return responses;
}

}  // namespace

std::string PointRequestLine(const SystemParams& params,
                             const MsApproachOptions& options,
                             std::uint64_t id) {
  JsonValue sweep = JsonValue::Object();
  sweep.Set("param", "nodes")
      .Set("from", params.num_nodes)
      .Set("to", params.num_nodes)
      .Set("step", 1);
  JsonValue request = JsonValue::Object();
  request.Set("id", static_cast<std::int64_t>(id))
      .Set("op", "sweep")
      .Set("params", engine::ParamsToJson(params))
      .Set("options", engine::OptionsToJson(options))
      .Set("sweep", std::move(sweep));
  return request.ToString();
}

double PointDetection(const JsonValue& response) {
  const JsonValue* result =
      response.is_object() ? response.Find("result") : nullptr;
  if (result == nullptr) return -1.0;
  const JsonValue* points = result->Find("points");
  SPARSEDET_CHECK(points != nullptr && points->is_array() &&
                      points->Size() == 1,
                  "inner solve response missing its sweep point");
  const JsonValue* detection = points->At(0).Find("detection_probability");
  SPARSEDET_CHECK(detection != nullptr && detection->is_number(),
                  "inner solve response missing detection_probability");
  return detection->AsDouble();
}

std::vector<JsonValue> SyncEngineBackend::Solve(
    const std::vector<std::string>& lines) {
  std::ostringstream in_text;
  for (const std::string& line : lines) in_text << line << '\n';
  std::istringstream in(in_text.str());
  std::ostringstream out;
  engine_.RunBatch(in, out);

  std::vector<std::string> raw;
  raw.reserve(lines.size());
  std::istringstream out_lines(out.str());
  std::string line;
  while (std::getline(out_lines, line)) {
    if (!line.empty()) raw.push_back(line);
  }
  return ParseResponses(raw, lines.size());
}

std::vector<JsonValue> AsyncEngineBackend::Solve(
    const std::vector<std::string>& lines) {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> raw(lines.size());
  std::size_t done = 0;

  for (std::size_t i = 0; i < lines.size(); ++i) {
    engine_.SubmitLineAsync(
        lines[i], static_cast<int>(i) + 1, parent_, /*oversized=*/false,
        [&, i](std::string response) {
          // A pool worker, or this thread for a cache hit: store and
          // signal, nothing that can block.
          std::lock_guard<std::mutex> lock(mutex);
          raw[i] = std::move(response);
          ++done;
          if (done == lines.size()) cv.notify_one();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == lines.size(); });
  }
  return ParseResponses(raw, lines.size());
}

}  // namespace sparsedet::opt
