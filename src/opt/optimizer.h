// The inverse-deployment optimizer.
//
// Search shape (the sweep-and-refine idiom): enumerate the spec's coarse
// grid over (N, k, M, t, duty) in deterministic order, evaluate it in
// fixed-size batches of inner solves fanned out through a SolveBackend,
// filter by the detection / false-alarm / lifetime constraints, then run
// `refine_rounds` of local refinement around the incumbent — each round
// halves every set axis's step and evaluates the +/- neighborhood, so the
// optimum is located to sub-grid resolution without paying for a fine
// global grid. Frontier mode skips refinement and instead reports the
// non-dominated set over (energy drain minimized, detection maximized).
//
// Division of labor per candidate: the detection probability is the
// expensive part and goes through the engine (pooled workers + result
// cache + solver memo cache); the false-alarm bound and the energy report
// are closed forms computed locally, so constraint checks never occupy a
// worker.
//
// Determinism contract (matching the engine's): the search order, batch
// boundaries, tie-breaking and output composition depend only on the spec,
// never on thread count or cache temperature, so a given spec produces
// byte-identical results at --solver-threads 1 or 8, cold or warm memo.
//
// Deadlines: spec.deadline_ms is enforced *between* batches — inner solves
// never carry deadline tokens (those forbid solver memo inserts, and
// warming that cache is the optimizer's whole economy). Expiry mid-search
// yields a valid partial result tagged "degraded": true; the worst-case
// overrun is one batch, never a hang.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/energy_model.h"
#include "obs/metrics.h"
#include "opt/backend.h"
#include "opt/spec.h"
#include "resilience/cancel.h"

namespace sparsedet::opt {

// Number of candidates per inner-solve batch: large enough to saturate the
// engine's worker pool, small enough that the between-batch deadline check
// bounds overrun tightly.
inline constexpr std::size_t kSolveBatchSize = 256;

struct OptimizerHooks {
  // Invoked before each inner-solve batch with its candidate count. The
  // TCP front-end applies per-tenant admission here (blocking until the
  // tenant's bucket admits the batch). Returning false stops the search
  // with a partial degraded result, exactly like a deadline expiry;
  // throwing resilience::Cancelled aborts the run.
  std::function<bool(std::size_t batch_size,
                     const resilience::Deadline& deadline)>
      admit;
  // Optional external cancellation (e.g. a connection token), checked
  // between batches; cancellation aborts the run with Cancelled.
  std::shared_ptr<const resilience::CancelToken> cancel;
};

// Holds a long command's "active" gauge (opt_active, adapt_active) up for
// its lifetime, exception-safe. A null gauge is a no-op.
struct ActiveGuard {
  explicit ActiveGuard(obs::Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr) gauge_->Add(1);
  }
  ~ActiveGuard() {
    if (gauge_ != nullptr) gauge_->Add(-1);
  }
  obs::Gauge* gauge_;
};

// The checks a long command (optimize, adapt) makes between inner-solve
// batches: external cancellation, the run's wall-clock deadline and
// per-batch admission. A refusal ends the run with what it has so far,
// tagged degraded, and counts one deadline partial.
class BatchGate {
 public:
  BatchGate(OptimizerHooks hooks, obs::Counter* deadline_partial)
      : hooks_(std::move(hooks)), deadline_partial_(deadline_partial) {}

  // Starts the run's clock; 0 = no deadline.
  void Start(std::int64_t deadline_ms);
  // Before each batch: throws resilience::Cancelled when hooks.cancel
  // fired; false once the deadline has expired.
  bool KeepGoing();
  // False when the admission hook refuses a batch of `batch_size` solves.
  bool Admit(std::size_t batch_size);
  bool degraded() const { return degraded_; }

 private:
  bool Refuse();

  OptimizerHooks hooks_;
  obs::Counter* deadline_partial_;
  resilience::Deadline deadline_;
  bool degraded_ = false;
};

// opt_* handles in a metrics registry, resolved once so the search loop
// never takes the registry mutex.
struct OptMetrics {
  explicit OptMetrics(obs::MetricsRegistry& registry);

  obs::Counter* runs;
  obs::Counter* candidates;
  obs::Counter* batches;
  obs::Counter* feasible;
  obs::Counter* invalid;
  obs::Counter* solve_errors;
  obs::Counter* refine_rounds;
  obs::Counter* deadline_partial;
  obs::Gauge* active;
  obs::Gauge* last_evaluated;
  obs::Gauge* last_frontier;
  // Per-iteration (inner-solve batch) latency, split by search phase.
  obs::Histogram* sweep_batch_us;
  obs::Histogram* refine_batch_us;
};

class Optimizer {
 public:
  // `registry` (optional) receives opt_* counters/gauges and per-iteration
  // latency histograms; pass the engine's so they surface in /statusz and
  // {"cmd":"stats"}. `hooks` wires admission and cancellation.
  Optimizer(const OptimizeSpec& spec, SolveBackend& backend,
            obs::MetricsRegistry* registry = nullptr,
            OptimizerHooks hooks = {});

  // Runs the search to completion (or deadline) and returns the result
  // object:
  //
  //   {"objective": ..., "mode": ..., "degraded": false,
  //    "grid": 480, "evaluated": 480, "feasible": 123, "invalid": 0,
  //    "solve_errors": 0, "batches": 2, "refine_rounds": 2,
  //    "best": {candidate} | null,
  //    "frontier": [{candidate}, ...]}        // frontier mode only
  //
  // where each candidate object carries nodes/k/window/period/duty plus
  // detection_probability, system_fa, drain_per_period, lifetime_days and
  // objective_value. Throws resilience::Cancelled when hooks.cancel fires
  // and InvalidArgument/Error for spec-level failures.
  JsonValue Run();

 private:
  struct Eval {
    Candidate candidate;
    double detection = 0.0;
    double system_fa = 0.0;
    EnergyReport energy;
    bool feasible = false;
  };

  // False = stop the search now (admission refused), with whatever has
  // been evaluated so far as the partial result.
  bool EvaluateBatch(const std::vector<Candidate>& batch, bool refining);
  // The +/- step/2^round neighborhood of `center` over the set axes,
  // deduplicated against everything already evaluated.
  std::vector<Candidate> Neighborhood(const Candidate& center,
                                      int round) const;
  double ObjectiveValue(const Eval& e) const;
  // Strict deterministic "a is a better optimum than b" (both feasible).
  bool Better(const Eval& a, const Eval& b) const;
  const Eval* CurrentBest() const;
  JsonValue EvalJson(const Eval& e) const;

  OptimizeSpec spec_;
  SolveBackend& backend_;
  std::unique_ptr<OptMetrics> metrics_;  // null without a registry
  BatchGate gate_;

  std::vector<Eval> evaluated_;
  std::unordered_set<std::string> seen_;
  std::uint64_t next_id_ = 1;
  std::size_t invalid_ = 0;
  std::size_t solve_errors_ = 0;
  std::uint64_t batches_ = 0;
  int refine_rounds_done_ = 0;
};

// Handles one {"cmd": <name>, "id": ..., "tenant": ..., "spec": {...}}
// long-command object (serve and serve-tcp): rejects other keys, passes
// the spec to `run`, and returns the response object — the echoed id plus
// either {"result": run(spec)} or {"error", "error_code"} with error_code
// invalid_argument | internal | resilience::CancelErrorCode(reason). Never
// throws, matching the engine's per-request error isolation.
JsonValue HandleLongCommand(
    const std::string& name, const JsonValue& command,
    const std::function<JsonValue(const JsonValue& spec)>& run);

// HandleLongCommand for {"cmd": "optimize"}: Optimizer::Run() over the
// parsed spec.
JsonValue HandleOptimizeCommand(const JsonValue& command,
                                SolveBackend& backend,
                                obs::MetricsRegistry* registry,
                                const OptimizerHooks& hooks = {});

// CLI rendering of a long-command result: one JSON line per element of its
// `rows_key` array (optimize's "frontier", adapt's "epochs"), then a
// summary line where that array is replaced by "<rows_key>_size". A result
// without the array prints as one line.
void WriteRowsThenSummary(const JsonValue& result,
                          const std::string& rows_key, std::ostream& out);

}  // namespace sparsedet::opt
