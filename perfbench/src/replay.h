// The traced run's engine: BatchEngine's request pipeline rebuilt from the
// program's public functions, one thread, with a span around every call.
//
//   ParseJson -> ParseRequest -> ExpandRequest + CanonicalKey -> result
//   cache -> EvaluateUnit on a one-thread WorkerPool -> ComposeResponse ->
//   JsonValue::ToString -> obs counters, phase histograms, /tracez ring
//
// It reproduces the engine's cache discipline (RunBatch plans every line
// before it renders any; Serve plans and renders one line at a time;
// identical units of one batch coalesce), its hand-off of each request's
// fresh units to a pool worker as one task, and its response bytes. The
// caller records no span until the worker is done, so spans recorded on
// the worker never race with it. The
// traced run checks those bytes against the real engine's, and reconciles
// the sum of the spans' self times against an untraced run of the real
// engine on the same input.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cache.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "obs/tracez.h"
#include "opt/backend.h"

namespace perfbench {

struct ReplayCounters {
  std::int64_t requests = 0;
  std::int64_t units = 0;
  std::int64_t cache_lookups = 0;  // units that consulted the result cache
  std::int64_t cache_hits = 0;
  std::int64_t core_units = 0;  // EvaluateUnit on analyze/sweep units
  std::int64_t sim_trials = 0;  // trials of the simulate units evaluated
  std::int64_t numbers_rendered = 0;  // non-integer doubles in responses
};

class ReplayEngine {
 public:
  ReplayEngine();

  // BatchEngine::RunBatch semantics: reads request lines to EOF, writes
  // one response line per request line, in order.
  void RunBatch(std::istream& in, std::ostream& out);
  // BatchEngine::Serve semantics for one line.
  std::string ServeLine(const std::string& line, int line_number);

  const ReplayCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = ReplayCounters{}; }

 private:
  struct Unit;
  struct Planned;

  std::unique_ptr<Planned> Plan(const std::string& line, int line_number);
  // Queues the request's fresh units on the pool; the caller waits.
  void Dispatch(Planned& request);
  std::string Render(Planned& request);

  // Installs the process-wide settings a real engine installs (solver
  // thread width, memo capacity, phase-timer registry); never evaluates.
  sparsedet::engine::BatchEngine settings_;
  sparsedet::engine::LruResultCache cache_;
  // The per-request bookkeeping the engine does through the obs layer.
  sparsedet::engine::EngineMetrics metrics_;
  sparsedet::obs::TraceRing trace_ring_;
  sparsedet::engine::WorkerPool pool_{1};  // last: joined before the rest
  ReplayCounters counters_;
  // Fresh units of the batch being planned, by canonical key.
  std::unordered_map<std::string, std::shared_ptr<Unit>> in_flight_;
};

// A SolveBackend that does what SyncEngineBackend::Solve does, line for
// line, on a ReplayEngine, and spans each Solve call as `grid_span`, or
// `validate_span` when the batch carries simulate lines. Counts the bytes
// crossing it.
class TracedBackend : public sparsedet::opt::SolveBackend {
 public:
  TracedBackend(ReplayEngine& engine, const char* grid_span,
                const char* validate_span)
      : engine_(engine), grid_span_(grid_span), validate_span_(validate_span) {}

  std::vector<sparsedet::JsonValue> Solve(
      const std::vector<std::string>& lines) override;

  std::int64_t bytes() const { return bytes_; }

 private:
  ReplayEngine& engine_;
  const char* grid_span_;
  const char* validate_span_;
  std::int64_t bytes_ = 0;
};

// Non-integer doubles in a JSON tree: the numbers whose rendering takes
// the shortest-round-trip search.
std::int64_t CountFractionalNumbers(const sparsedet::JsonValue& value);

}  // namespace perfbench
