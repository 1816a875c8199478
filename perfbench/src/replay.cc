#include "replay.h"

#include <cmath>

#include <sstream>

#include "common/check.h"
#include "common/error.h"
#include "common/framing.h"
#include "common/json.h"
#include "engine/request.h"
#include "trace.h"

namespace perfbench {

using sparsedet::JsonValue;
namespace engine = sparsedet::engine;

struct ReplayEngine::Unit {
  std::string key;
  engine::WorkUnit unit;
  std::shared_ptr<const JsonValue> result;
  std::string error;
  std::int64_t solve_ns = 0;
  bool evaluated = false;
  bool inserted = false;
};

struct ReplayEngine::Planned {
  struct Ref {
    std::shared_ptr<const JsonValue> cached;
    std::shared_ptr<Unit> pending;
  };
  int line = 0;
  std::int64_t op = 0;  // the span op id: the request's sequence number
  std::int64_t planned_ns = 0;
  JsonValue id;
  engine::Request request;
  std::vector<Ref> units;
  std::vector<std::int64_t> lookup_ns;  // per unit
  std::vector<Unit*> evaluated;         // units this request evaluated
  std::string error;
};

namespace {

// The engine's request limits (EngineOptions::max_json_depth and
// max_line_bytes).
constexpr int kMaxJsonDepth = 64;
constexpr std::size_t kMaxLineBytes = 1 << 20;

engine::EngineOptions SettingsOnly() {
  engine::EngineOptions options;
  options.threads = 1;
  return options;
}

}  // namespace

ReplayEngine::ReplayEngine()
    : settings_(SettingsOnly()),
      cache_(engine::EngineOptions().cache_capacity),
      metrics_(settings_.registry()) {}

std::unique_ptr<ReplayEngine::Planned> ReplayEngine::Plan(
    const std::string& line, int line_number) {
  auto planned = std::make_unique<Planned>();
  planned->line = line_number;
  planned->id = JsonValue(line_number);
  planned->op = counters_.requests++;
  planned->planned_ns = NowNs();
  if (Tracer* tracer = ActiveTracer()) tracer->SetOp(planned->op);
  try {
    JsonValue json;
    {
      ScopedSpan span("common.json_parse");
      json = sparsedet::ParseJson(line, kMaxJsonDepth);
    }
    if (json.is_object()) {
      if (const JsonValue* id = json.Find("id");
          id != nullptr && (id->is_string() || id->is_number())) {
        planned->id = *id;
      }
    }
    {
      ScopedSpan span("engine.parse_request");
      planned->request = engine::ParseRequest(json, line_number);
    }
    planned->id = planned->request.id;
    std::vector<engine::WorkUnit> expanded;
    std::vector<std::string> keys;
    {
      ScopedSpan span("engine.plan");
      expanded = engine::ExpandRequest(planned->request);
      keys.reserve(expanded.size());
      for (const engine::WorkUnit& unit : expanded) {
        keys.push_back(engine::CanonicalKey(unit));
      }
    }
    ScopedSpan span("engine.cache");
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      ++counters_.units;
      Planned::Ref ref;
      const std::int64_t lookup_start = NowNs();
      const auto joined = in_flight_.find(keys[i]);
      if (joined != in_flight_.end()) {
        ref.pending = joined->second;
      } else {
        ++counters_.cache_lookups;
        ref.cached = cache_.Get(keys[i]);
        if (ref.cached != nullptr) {
          ++counters_.cache_hits;
        } else {
          auto unit = std::make_shared<Unit>();
          unit->key = keys[i];
          unit->unit = std::move(expanded[i]);
          ref.pending = unit;
          in_flight_.emplace(keys[i], std::move(unit));
        }
      }
      planned->units.push_back(std::move(ref));
      planned->lookup_ns.push_back(NowNs() - lookup_start);
    }
  } catch (const sparsedet::Error& e) {
    planned->error = e.what();
    planned->units.clear();
  }
  return planned;
}

void ReplayEngine::Dispatch(Planned& request) {
  for (const Planned::Ref& ref : request.units) {
    if (ref.pending == nullptr || ref.pending->evaluated) continue;
    ref.pending->evaluated = true;
    request.evaluated.push_back(ref.pending.get());
  }
  if (request.evaluated.empty()) return;
  pool_.Submit([this, &request] {
    if (Tracer* tracer = ActiveTracer()) tracer->SetOp(request.op);
    for (Unit* unit : request.evaluated) {
      const bool simulate = unit->unit.op == engine::RequestOp::kSimulate;
      if (simulate) {
        counters_.sim_trials += unit->unit.sim.trials;
      } else {
        ++counters_.core_units;
      }
      const std::int64_t start = NowNs();
      try {
        ScopedSpan solve(simulate ? "sim.trial" : "core.solve");
        unit->result =
            std::make_shared<const JsonValue>(engine::EvaluateUnit(unit->unit));
      } catch (const sparsedet::Error& e) {
        unit->error = e.what();
      }
      unit->solve_ns = NowNs() - start;
    }
  });
}

std::string ReplayEngine::Render(Planned& request) {
  if (Tracer* tracer = ActiveTracer()) tracer->SetOp(request.op);
  JsonValue response = JsonValue::Object();
  std::string unit_error;
  std::vector<const JsonValue*> results;
  if (request.error.empty()) {
    ScopedSpan span("engine.publish");
    for (const Planned::Ref& ref : request.units) {
      if (ref.cached != nullptr) {
        results.push_back(ref.cached.get());
        continue;
      }
      Unit& unit = *ref.pending;
      if (!unit.error.empty()) {
        unit_error = unit.error;
        break;
      }
      if (!unit.inserted) {
        cache_.Put(unit.key, unit.result);
        unit.inserted = true;
      }
      results.push_back(unit.result.get());
    }
  }
  if (!request.error.empty() || !unit_error.empty()) {
    response.Set("id", request.id)
        .Set("line", request.line)
        .Set("error", request.error.empty() ? unit_error : request.error);
  } else {
    ScopedSpan span("engine.compose");
    response.Set("id", request.id)
        .Set("op", engine::OpName(request.request.op))
        .Set("result", engine::ComposeResponse(request.request, results));
  }
  std::string text;
  const std::int64_t render_start = NowNs();
  {
    ScopedSpan span("common.json_render");
    text = response.ToString();
  }
  const std::int64_t serialize_ns = NowNs() - render_start;
  {
    // What RenderRequest and RunUnit record per request: counters, phase
    // histograms and the /tracez ring.
    ScopedSpan span("obs.record");
    metrics_.requests->Inc();
    for (std::int64_t ns : request.lookup_ns) {
      metrics_.units->Inc();
      metrics_.cache_lookup->Record(ns);
    }
    sparsedet::obs::CompletedSpan completed;
    for (const Unit* unit : request.evaluated) {
      metrics_.queue_wait->Record(0);
      metrics_.solve->Record(unit->solve_ns);
      completed.solve_ns += unit->solve_ns;
    }
    const bool ok = request.error.empty() && unit_error.empty();
    (ok ? metrics_.ok : metrics_.errors)->Inc();
    metrics_.serialize->Record(serialize_ns);
    completed.trace_id = static_cast<std::uint64_t>(request.op) + 1;
    completed.id = request.id.is_string() ? request.id.AsString()
                                          : request.id.ToString();
    completed.op = engine::OpName(request.request.op);
    completed.ok = ok;
    completed.total_ns = NowNs() - request.planned_ns;
    trace_ring_.Record(std::move(completed));
  }
  counters_.numbers_rendered += CountFractionalNumbers(response);
  return text;
}

void ReplayEngine::RunBatch(std::istream& in, std::ostream& out) {
  std::vector<std::unique_ptr<Planned>> planned;
  std::string line;
  bool truncated = false;
  int line_number = 0;
  while (sparsedet::framing::ReadBoundedLine(in, line, kMaxLineBytes,
                                             &truncated)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    planned.push_back(Plan(line, line_number));
  }
  {
    ScopedSpan span("engine.dispatch");
    for (const auto& request : planned) Dispatch(*request);
    pool_.Wait();
  }
  in_flight_.clear();
  for (const auto& request : planned) out << Render(*request) << "\n";
}

std::string ReplayEngine::ServeLine(const std::string& line, int line_number) {
  std::unique_ptr<Planned> planned = Plan(line, line_number);
  {
    ScopedSpan span("engine.dispatch");
    Dispatch(*planned);
    pool_.Wait();
  }
  std::string text = Render(*planned);
  in_flight_.clear();
  return text;
}

std::vector<JsonValue> TracedBackend::Solve(
    const std::vector<std::string>& lines) {
  bool validate = false;
  for (const std::string& line : lines) {
    bytes_ += static_cast<std::int64_t>(line.size()) + 1;
    validate = validate ||
               line.find("\"op\":\"simulate\"") != std::string::npos;
  }
  ScopedSpan span(validate ? validate_span_ : grid_span_);
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
  SPARSEDET_CHECK(raw.size() == lines.size(),
                  "replay returned a different number of responses");
  std::vector<JsonValue> responses;
  responses.reserve(raw.size());
  for (const std::string& text : raw) {
    bytes_ += static_cast<std::int64_t>(text.size()) + 1;
    ScopedSpan parse("common.json_reparse");
    responses.push_back(sparsedet::ParseJson(text));
  }
  return responses;
}

std::int64_t CountFractionalNumbers(const JsonValue& value) {
  if (value.is_number()) {
    const double d = value.AsDouble();
    return std::isfinite(d) &&
                   !(d == std::floor(d) && std::abs(d) < 9.007199254740992e15)
               ? 1
               : 0;
  }
  std::int64_t count = 0;
  if (value.is_array()) {
    for (const JsonValue& item : value.Items()) {
      count += CountFractionalNumbers(item);
    }
  } else if (value.is_object()) {
    for (const auto& field : value.Fields()) {
      count += CountFractionalNumbers(field.second);
    }
  }
  return count;
}

}  // namespace perfbench
