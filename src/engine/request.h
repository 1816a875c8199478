// The batch-engine request protocol.
//
// One request per JSONL line:
//
//   {"id": "a1", "op": "analyze",
//    "params":  {"nodes": 240, "speed": 10, ...},        // scenario
//    "options": {"gh": 3, "g": 3, "normalize": true, "reliability": 1}}
//
// Ops: analyze | simulate | sweep | latency | fa. Op-specific sections:
//   "sim":   {"trials", "seed", "pf", "reliability", "h", "motion",
//             "geometry"}                                (op = simulate)
//   "sweep": {"param", "from", "to", "step"}             (op = sweep)
//   "fa":    {"pf", "max_k"}                             (op = fa)
//
// Parsing is strict: unknown keys, wrong types and out-of-domain scenario
// parameters are all rejected with a message naming the offending key, so
// a typo never silently evaluates the default scenario (mirroring the
// FlagParser contract on the CLI side).
//
// A request expands into one or more *work units* — the engine's unit of
// evaluation, deduplication and caching. analyze/simulate/latency/fa are
// one unit each; a sweep becomes one unit per grid point, so overlapping
// sweeps share point evaluations through the cache.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "core/ms_approach.h"
#include "core/params.h"

namespace sparsedet {
struct ScenarioReport;
}  // namespace sparsedet

namespace sparsedet::engine {

enum class RequestOp { kAnalyze, kSimulate, kSweep, kLatency, kFa };

// Returns "analyze", "simulate", ...
std::string OpName(RequestOp op);

struct SimulateSpec {
  int trials = 10000;
  std::uint64_t seed = 20080617;
  double false_alarm_prob = 0.0;
  double node_reliability = 1.0;
  int distinct_nodes = 1;  // "h": reports must come from >= h distinct nodes
  std::string motion = "straight";     // straight | random-walk
  std::string geometry = "toroidal";   // toroidal | planar
  double node_death_prob = 0.0;   // "death": per-period node death process
  double report_loss_prob = 0.0;  // "loss": i.i.d. report transport loss
};

struct SweepSpec {
  std::string param = "nodes";  // nodes | speed | k | window | rs | pd
  double from = 60.0;
  double to = 240.0;
  double step = 20.0;
};

struct FaSpec {
  double false_alarm_prob = 1e-3;
  int max_k = 8;
};

struct Request {
  JsonValue id;  // echoed verbatim in the response (string or number)
  RequestOp op = RequestOp::kAnalyze;
  SystemParams params;
  MsApproachOptions options;
  SimulateSpec sim;
  SweepSpec sweep;
  FaSpec fa;
  // Admission-control identity for the TCP front-end's per-tenant quotas;
  // empty = the default tenant. Not part of any cache key — it routes the
  // request, it does not change the result.
  std::string tenant;
  // Wall-clock budget for the whole request; 0 = none. Not part of any
  // cache key — it bounds the computation, it does not change the result.
  std::int64_t deadline_ms = 0;
  // On deadline expiry, fall back to the cheap closed forms (analyze only)
  // instead of failing; the response is tagged "degraded": true.
  bool degrade = false;
};

// Parses and validates one request object. `default_id` is used when the
// request carries no "id" field (the engine passes the 1-based input line
// number). Throws InvalidArgument with a key-specific message.
Request ParseRequest(const JsonValue& json, int default_id);

// The largest integer a JSON number (a double) carries exactly, 2^53 - 1.
inline constexpr double kMaxExactJsonInt = 9007199254740991.0;

// Strict reading of one JSON object, shared by every schema that embeds a
// scenario (requests here, the optimize and adapt specs) so they all reject
// typos and mistyped values the same way. `noun` names the document kind
// ("request" or "spec") and `section` the object's dotted path ("" at top
// level); both only shape the messages:
//
//   unknown <noun> field "<section>.<key>"
//   <noun> field "<section>.<key>": <message>
//
// Getters return `fallback` for an absent key and throw InvalidArgument for
// a present key of the wrong type. Checking keys and reading numbers
// allocate nothing; only a failure builds a message.
class FieldReader {
 public:
  // Throws naming the first key of `obj` (an object) not in `allowed`.
  FieldReader(const JsonValue& obj, const char* noun, std::string section,
              std::initializer_list<std::string_view> allowed);

  [[noreturn]] void FailKey(std::string_view key,
                            const std::string& message) const;

  double Number(const std::string& key, double fallback) const;
  // Number, but an absent key fails ("required").
  double RequiredNumber(const std::string& key) const;
  // An integral number within int range.
  int Int(const std::string& key, int fallback) const;
  // An integral number in [0, max]. Any max up to kMaxExactJsonInt keeps
  // the value exact as a double and an int64_t, so seeds and deadlines
  // survive the JSON round trip unchanged.
  std::int64_t NonNegativeInt(const std::string& key, std::int64_t fallback,
                              double max = 9.0e15) const;
  bool Bool(const std::string& key, bool fallback) const;
  std::string String(const std::string& key,
                     const std::string& fallback) const;
  // The object under `key`, or null when absent; fails when not an object.
  const JsonValue* Object(const std::string& key) const;
  // Object(key) as a nested reader (section "<section>.<key>"), or nullopt
  // when absent.
  std::optional<FieldReader> Section(
      const std::string& key,
      std::initializer_list<std::string_view> allowed) const;

 private:
  void CheckKeys(std::initializer_list<std::string_view> allowed) const;

  const JsonValue& obj_;
  const char* noun_;
  std::string section_;
};

// The scenario codec: the "params" / "options" sections every schema
// embedding a scenario (the optimize and adapt specs, the inner requests
// they send) shares, so the schema has one reader and one writer. The
// parsers throw InvalidArgument naming the offending key; the writers
// round-trip through them bit for bit.
SystemParams ParseParamsSection(const JsonValue& obj);
MsApproachOptions ParseOptionsSection(const JsonValue& obj);
JsonValue ParamsToJson(const SystemParams& params);
JsonValue OptionsToJson(const MsApproachOptions& options);

// The analyze result object (shared by the engine and `sparsedet analyze
// --format json`).
JsonValue AnalyzeToJson(const SystemParams& params,
                        const ScenarioReport& report);

// A single cacheable evaluation. For op == kSweep this is one grid point
// (params carry the applied sweep value); other ops evaluate whole.
struct WorkUnit {
  RequestOp op = RequestOp::kAnalyze;
  bool sweep_point = false;  // true: evaluate detection probability only
  SystemParams params;
  MsApproachOptions options;
  SimulateSpec sim;
  FaSpec fa;
};

// The sweep grid: from, from + step, ... up to `to` (inclusive, with a
// 1e-9 epsilon). Throws InvalidArgument past 100000 points, which also
// stops a step too small to advance the value.
std::vector<double> SweepValues(const SweepSpec& spec);

// True for the sweepable parameters: nodes | speed | k | window | rs | pd.
bool IsSweepParam(const std::string& param);
// Sets one sweep point's parameter (integer parameters truncate).
// Requires IsSweepParam(param).
void ApplySweepValue(SystemParams& p, const std::string& param,
                     double value);

// Expands a request into its work units (>= 1, in deterministic order).
std::vector<WorkUnit> ExpandRequest(const Request& request);

// Canonical cache key: a stable string over every parameter the unit's
// result depends on, with shortest-round-trip number formatting so 10 and
// 10.0 canonicalize identically.
std::string CanonicalKey(const WorkUnit& unit);

// Evaluates one unit against core/sim. Pure: no shared state, safe to call
// concurrently from pool workers. Throws sparsedet::Error on invalid
// scenarios (the engine converts that into a per-request error line).
JsonValue EvaluateUnit(const WorkUnit& unit);

// Reassembles the response body from the unit results, in unit order.
JsonValue ComposeResponse(const Request& request,
                          const std::vector<const JsonValue*>& unit_results);

// The graceful-degradation fallback for an analyze request whose deadline
// expired: the M = 1 closed form (Eqs. 1-2) plus a reduced-G S-approach
// (G = 1) with its achieved accuracy eta_S. Cheap by construction — no
// M-S chain propagation, one convolution at most.
JsonValue DegradedAnalyzeResult(const SystemParams& params);

}  // namespace sparsedet::engine
