// How the optimizer's inner solves reach the batch engine.
//
// The optimizer never computes a detection probability itself — every
// candidate becomes one JSONL engine request (a single-point sweep, the
// engine's cheapest unit), so inner solves flow through the engine's
// worker pool, result cache and the process-wide solver memo cache exactly
// like user traffic. Two transports:
//
//   * SyncEngineBackend drives BatchEngine::RunBatch from the calling
//     thread — the CLI `optimize` subcommand and the stdio serve hook,
//     where the engine is otherwise idle between requests.
//   * AsyncEngineBackend feeds BatchEngine::SubmitLineAsync — the TCP
//     front-end, whose engine already runs in async mode serving other
//     connections concurrently. Solve() must NOT be called from one of
//     the engine's pool workers: the callbacks it waits on run on those
//     workers (or inline, for cache hits), and it would hold one of them.
//
// Both return exactly one parsed response per request line, in request
// order, which is what makes the optimizer's output byte-identical across
// transports and thread counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/ms_approach.h"
#include "core/params.h"
#include "engine/engine.h"
#include "resilience/cancel.h"

namespace sparsedet::opt {

// One scenario as an inner-solve request line: a single-point sweep at the
// scenario's own N, the engine's cheapest unit (detection probability
// only), sharing result-cache and memo-cache entries with any user sweep
// over the same scenario. Optimize and adapt phrase every analytic
// candidate this way.
std::string PointRequestLine(const SystemParams& params,
                             const MsApproachOptions& options,
                             std::uint64_t id);

// The detection probability out of a PointRequestLine response, or a
// negative value when the engine answered with a per-request error.
double PointDetection(const JsonValue& response);

class SolveBackend {
 public:
  virtual ~SolveBackend() = default;

  // Evaluates one batch of JSONL request lines (no trailing newlines) and
  // returns the parsed response objects in request order. Individual
  // request failures come back as {"id":...,"error":...} objects; throws
  // only on transport-level failure.
  virtual std::vector<JsonValue> Solve(
      const std::vector<std::string>& lines) = 0;
};

class SyncEngineBackend : public SolveBackend {
 public:
  explicit SyncEngineBackend(engine::BatchEngine& engine)
      : engine_(engine) {}

  std::vector<JsonValue> Solve(const std::vector<std::string>& lines) override;

 private:
  engine::BatchEngine& engine_;
};

class AsyncEngineBackend : public SolveBackend {
 public:
  // `parent` (optional) chains under every inner request's token; the TCP
  // front-end passes the connection token so a disconnect cancels the
  // optimizer's in-flight solves. The engine must be in async mode
  // (StartAsync) for the lifetime of this backend.
  AsyncEngineBackend(engine::BatchEngine& engine,
                     std::shared_ptr<const resilience::CancelToken> parent)
      : engine_(engine), parent_(std::move(parent)) {}

  std::vector<JsonValue> Solve(const std::vector<std::string>& lines) override;

 private:
  engine::BatchEngine& engine_;
  std::shared_ptr<const resilience::CancelToken> parent_;
};

}  // namespace sparsedet::opt
