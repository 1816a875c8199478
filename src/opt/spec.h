// The inverse-deployment optimizer's problem specification.
//
// Everything else in the system answers the paper's forward question —
// given (N, k, M, t, Pd, duty cycle), what is the detection probability?
// An OptimizeSpec states the inverse one: over a search grid of those
// knobs, find the configuration that minimizes an objective (fleet size,
// energy drain) subject to detection / false-alarm / lifetime constraints,
// or trace the whole energy-vs-P_D Pareto frontier.
//
// One spec per JSON object:
//
//   {"objective": "min_nodes",            // min_nodes|min_energy|max_detection
//    "mode": "optimize",                  // optimize|frontier
//    "constraints": {"min_detection": 0.99, "pf": 1e-3, "max_fa": 0.01,
//                    "min_lifetime_days": 0},
//    "search": {"nodes":  {"from": 60, "to": 240, "step": 20},
//               "k":      {"from": 2, "to": 8, "step": 1},
//               "window": {...}, "period": {...}, "duty": {...}},
//    "params":  {... fixed scenario, engine "params" schema ...},
//    "options": {... M-S solver options, engine "options" schema ...},
//    "energy":  {"battery": 2e5, "sense": 0.5, "idle": 0.01,
//                "tx": 0.05, "rx": 0.02, "hops": 4.3},
//    "refine_rounds": 2,
//    "deadline_ms": 0}
//
// Parsing is strict (unknown keys and wrong types are rejected with a
// message naming the offending key), mirroring the batch-engine request
// protocol so a typo never silently optimizes the default scenario.
//
// Axis semantics: an absent axis is fixed at the value in "params" (duty
// at 1.0). A present axis enumerates from, from+step, ... up to `to`
// inclusive. Endpoints are bounded to +/-1e9, the integer axes (nodes, k,
// window) require integral from/step, and each axis is capped at
// kMaxGridCandidates values — all checked in closed form at parse time,
// so a hostile range is rejected before anything is materialized. Duty cycling maps onto the solver analytically (validated by
// experiment E20): an awake fraction d scales the per-period report
// probability to d * Pd — so every duty point reuses the same analytical
// solve family, and therefore the same solver memo entries, as a plain
// sweep would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/energy_model.h"
#include "core/ms_approach.h"
#include "core/params.h"
#include "engine/request.h"

namespace sparsedet::opt {

enum class Objective { kMinNodes, kMinEnergy, kMaxDetection };
enum class SearchMode { kOptimize, kFrontier };

// "min_nodes", "min_energy", "max_detection" / "optimize", "frontier".
std::string ObjectiveName(Objective objective);
std::string SearchModeName(SearchMode mode);

// One search dimension: from, from + step, ... up to `to` inclusive (with
// the same epsilon the sweep grid uses). `set` is false for axes absent
// from the spec, which stay fixed at the scenario value.
struct AxisSpec {
  bool set = false;
  double from = 0.0;
  double to = 0.0;
  double step = 1.0;

  // Number of grid values (1 when unset: the fixed scenario value).
  std::size_t Count() const;
  std::vector<double> Values() const;
};

struct OptimizeSpec {
  Objective objective = Objective::kMinNodes;
  SearchMode mode = SearchMode::kOptimize;

  // Constraints. `pf` is the per-node per-awake-period false alarm
  // probability feeding both the count-only system FA bound and the
  // steady-state energy report rate; `max_fa` caps the count-only
  // P[system false alarm per window] (1 = unconstrained).
  double min_detection = 0.9;
  double pf = 0.0;
  double max_fa = 1.0;
  double min_lifetime_days = 0.0;

  // Search axes over (N, k, M, t, duty).
  AxisSpec nodes;
  AxisSpec k;
  AxisSpec window;
  AxisSpec period;
  AxisSpec duty;

  // Fixed scenario baseline + solver options (engine request schema).
  SystemParams params = SystemParams::OnrDefaults();
  MsApproachOptions options;

  // Energy accounting (E24): model costs plus the mean route length to the
  // base station.
  EnergyModel energy;
  double mean_hops = 4.3;

  // Local-refinement rounds around the incumbent after the coarse sweep
  // (mode "optimize" only); each round halves every set axis's step and
  // re-evaluates the +/- neighborhood. 0 = coarse grid only.
  int refine_rounds = 2;

  // Wall-clock budget for the whole search; 0 = none. Expiry yields a
  // valid partial result tagged "degraded": true, never a hang. The
  // deadline is enforced *between* inner-solve batches so inner solves
  // never carry deadline tokens — deadline-bearing tokens forbid memo
  // inserts, and the optimizer's whole economy is warming that cache.
  std::int64_t deadline_ms = 0;

  // Total coarse-grid size (product of axis counts).
  std::size_t GridSize() const;
};

// Largest coarse grid a spec may enumerate (product of axis counts),
// mirroring the engine's sweep-point cap: serve mode must never accept a
// request that enqueues unbounded work.
inline constexpr std::size_t kMaxGridCandidates = 100000;

// Reads search axis `name` of the "search" section `search` (unset when
// absent), checked in closed form: finite endpoints within +/-1e9, to >=
// from, a step that advances both endpoints, integral from/step when
// `integer`, and at most kMaxGridCandidates values. Domain floors (e.g.
// from >= 1) are the caller's. AxisToJson writes what ParseAxis reads.
AxisSpec ParseAxis(const engine::FieldReader& search, const std::string& name,
                   bool integer);
JsonValue AxisToJson(const AxisSpec& axis);

// Parses and validates one spec object. Throws InvalidArgument with a
// key-specific message on unknown keys, type mismatches, out-of-domain
// values, or a grid larger than kMaxGridCandidates.
OptimizeSpec ParseOptimizeSpec(const JsonValue& json);

// The spec as canonical JSON (round-trips through ParseOptimizeSpec);
// echoed in results so a stored frontier is self-describing.
JsonValue SpecToJson(const OptimizeSpec& spec);

// One point of the search grid.
struct Candidate {
  int nodes = 0;
  int k = 0;
  int window = 0;
  double period = 0.0;
  double duty = 1.0;
};

// Deterministic lexicographic order over (nodes, k, window, period, duty);
// the tie-break order every objective shares.
bool CandidateLess(const Candidate& a, const Candidate& b);

// Injective dedup key (bit-exact doubles), used to skip re-evaluating grid
// points the refinement neighborhoods revisit.
std::string CandidateKey(const Candidate& c);

// The candidate applied to the spec's fixed scenario: N/k/M/t replaced,
// detect_prob scaled by duty (the E20 duty-cycling equivalence).
SystemParams CandidateParams(const OptimizeSpec& spec, const Candidate& c);

// The full coarse grid in deterministic order (nodes outermost, duty
// innermost — matching CandidateLess). Candidates whose parameters fail
// SystemParams::Validate() are dropped; `invalid` (optional) receives the
// dropped count.
std::vector<Candidate> CoarseGrid(const OptimizeSpec& spec,
                                  std::size_t* invalid = nullptr);

}  // namespace sparsedet::opt
