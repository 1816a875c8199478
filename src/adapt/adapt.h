// The self-healing adaptation loop.
//
// Each epoch: (1) advance the failure process (expected survival in
// analyze mode, one seeded realization in closed_loop mode); (2) estimate
// the live population (oracle census or the report-count estimator); (3)
// evaluate every candidate (k, M) setting at that population — detection
// through the engine (pooled workers + result cache + the process-wide
// solver memo cache, which consecutive epochs share since they differ only
// in the population scalar), false-alarm bound as a local closed form; (4)
// let the controller pick next epoch's setting; (5) in closed_loop mode,
// optionally validate the chosen setting by Monte Carlo at the *realized*
// alive count, which is the acceptance check that the loop actually holds
// its floor.
//
// Determinism contract (matching the optimizer's): epoch order, batch
// composition, estimator arithmetic and output depend only on the spec —
// never on thread count or cache temperature — so a given spec produces
// byte-identical results at --solver-threads 1 or 8, cold or warm memo.
//
// Deadlines: spec.deadline_ms is enforced *between* inner-solve batches;
// expiry yields the epochs completed so far tagged "degraded": true, never
// a hang. The admission hook is consulted per batch exactly like the
// optimizer's, so the TCP front-end meters adapt runs with the same
// per-tenant buckets.
#pragma once

#include "adapt/spec.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "opt/backend.h"
#include "opt/optimizer.h"

namespace sparsedet::adapt {

// Admission / cancellation hooks, shared with the optimizer so the serve
// front-ends meter both long-command kinds identically.
using AdaptHooks = opt::OptimizerHooks;

// adapt_* handles in a metrics registry, resolved once so the epoch loop
// never takes the registry mutex.
struct AdaptMetrics {
  explicit AdaptMetrics(obs::MetricsRegistry& registry);

  obs::Counter* runs;
  obs::Counter* epochs;
  obs::Counter* retunes;
  obs::Counter* candidates;
  obs::Counter* solve_errors;
  obs::Counter* infeasible_epochs;
  obs::Counter* deadline_partial;
  obs::Gauge* active;
  // Deployment health after the most recent epoch: the population the
  // decision used, the estimator's view of it, and the setting in force.
  obs::Gauge* live_population;
  obs::Gauge* estimated_population;
  obs::Gauge* current_k;
  obs::Gauge* current_window;
  obs::Histogram* epoch_us;
};

// Runs the adaptation loop to completion (or deadline) and returns:
//
//   {"mode": "closed_loop", "degraded": false, "held": true,
//    "epochs_run": 12, "horizon_epochs": 12, "retunes": 3,
//    "solve_errors": 0,
//    "final": {"k": 3, "window": 30, "live": 41},
//    "epochs": [{"epoch": 0, "time_s": 0, "survival": 1,
//                "expected_live": 60, "alive": 60,
//                "estimate": {"live": ..., "lo": ..., "hi": ...},
//                "k": 5, "window": 20, "retuned": false, "feasible": true,
//                "detection_probability": ..., "system_fa": ...,
//                "analytic_alive": ...,          // closed_loop
//                "simulated": {...}},            // closed_loop, trials > 0
//               ...]}
//
// "held" is true when every epoch run found a setting meeting the floor
// and FA cap at its population estimate. Throws resilience::Cancelled when
// hooks.cancel fires and InvalidArgument/Error for spec-level failures.
JsonValue AdaptRun(const AdaptSpec& spec, opt::SolveBackend& backend,
                   obs::MetricsRegistry* registry = nullptr,
                   const AdaptHooks& hooks = {});

// opt::HandleLongCommand for {"cmd": "adapt"}: AdaptRun over the parsed
// spec, with the optimizer's envelope and error vocabulary. Never throws.
JsonValue HandleAdaptCommand(const JsonValue& command,
                             opt::SolveBackend& backend,
                             obs::MetricsRegistry* registry,
                             const AdaptHooks& hooks = {});

}  // namespace sparsedet::adapt
