#include "engine/request.h"

#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/check.h"
#include "core/analysis.h"
#include "core/false_alarm_model.h"
#include "core/latency.h"
#include "core/s_approach.h"
#include "core/single_period.h"
#include "sim/monte_carlo.h"

namespace sparsedet::engine {
namespace {

// Maximum points one sweep may expand into; guards serve mode against a
// request that would enqueue unbounded work.
constexpr std::size_t kMaxSweepPoints = 100000;

SimulateSpec ParseSim(const JsonValue& obj) {
  const FieldReader r(obj, "request", "sim",
                      {"trials", "seed", "pf", "reliability", "h", "motion",
                       "geometry", "death", "loss"});
  SimulateSpec s;
  s.trials = r.Int("trials", s.trials);
  // Every seed a double carries exactly: adapt's validation requests draw
  // theirs from the full 53 bits.
  s.seed = static_cast<std::uint64_t>(r.NonNegativeInt(
      "seed", static_cast<std::int64_t>(s.seed), kMaxExactJsonInt));
  s.false_alarm_prob = r.Number("pf", s.false_alarm_prob);
  s.node_reliability = r.Number("reliability", s.node_reliability);
  s.distinct_nodes = r.Int("h", s.distinct_nodes);
  s.motion = r.String("motion", s.motion);
  s.geometry = r.String("geometry", s.geometry);
  s.node_death_prob = r.Number("death", s.node_death_prob);
  s.report_loss_prob = r.Number("loss", s.report_loss_prob);
  if (s.node_death_prob < 0.0 || s.node_death_prob > 1.0) {
    r.FailKey("death", "expected in [0, 1]");
  }
  if (s.report_loss_prob < 0.0 || s.report_loss_prob > 1.0) {
    r.FailKey("loss", "expected in [0, 1]");
  }
  if (s.trials < 1) r.FailKey("trials", "expected >= 1");
  if (s.distinct_nodes < 1) r.FailKey("h", "expected >= 1");
  if (s.motion != "straight" && s.motion != "random-walk") {
    r.FailKey("motion", "expected \"straight\" or \"random-walk\"");
  }
  if (s.geometry != "toroidal" && s.geometry != "planar") {
    r.FailKey("geometry", "expected \"toroidal\" or \"planar\"");
  }
  return s;
}

SweepSpec ParseSweep(const JsonValue& obj) {
  const FieldReader r(obj, "request", "sweep", {"param", "from", "to", "step"});
  SweepSpec s;
  s.param = r.String("param", s.param);
  s.from = r.Number("from", s.from);
  s.to = r.Number("to", s.to);
  s.step = r.Number("step", s.step);
  if (!IsSweepParam(s.param)) {
    r.FailKey("param", "expected one of nodes | speed | k | window | rs | pd");
  }
  if (!(s.step > 0.0)) r.FailKey("step", "expected > 0");
  if (s.to < s.from) r.FailKey("to", "expected >= sweep.from");
  return s;
}

FaSpec ParseFa(const JsonValue& obj) {
  const FieldReader r(obj, "request", "fa", {"pf", "max_k"});
  FaSpec f;
  f.false_alarm_prob = r.Number("pf", f.false_alarm_prob);
  f.max_k = r.Int("max_k", f.max_k);
  if (f.false_alarm_prob < 0.0 || f.false_alarm_prob > 1.0) {
    r.FailKey("pf", "expected in [0, 1]");
  }
  if (f.max_k < 1) r.FailKey("max_k", "expected >= 1");
  return f;
}

// Appends each part's key text: doubles through the response serializer's
// number formatter (so nodes=10 and nodes=10.0 share a key), integers in
// decimal, strings verbatim.
template <typename... Parts>
void AppendKey(std::string& key, const Parts&... parts) {
  const auto append = [&key](const auto& part) {
    using Part = std::decay_t<decltype(part)>;
    if constexpr (std::is_floating_point_v<Part>) {
      AppendJsonNumber(key, part);
    } else if constexpr (std::is_integral_v<Part>) {
      key += std::to_string(part);
    } else {
      key += part;
    }
  };
  (append(parts), ...);
}

void AppendScenarioKey(std::string& key, const SystemParams& p) {
  AppendKey(key, "|W=", p.field_width, "|H=", p.field_height,
            "|N=", p.num_nodes, "|Rs=", p.sensing_range,
            "|Rc=", p.comm_range, "|Pd=", p.detect_prob,
            "|t=", p.period_length, "|V=", p.target_speed,
            "|M=", p.window_periods, "|k=", p.threshold_reports);
}

void AppendOptionsKey(std::string& key, const MsApproachOptions& o) {
  AppendKey(key, "|gh=", o.gh, "|g=", o.g, "|norm=", o.normalize ? 1 : 0,
            "|rel=", o.node_reliability);
}

}  // namespace

FieldReader::FieldReader(const JsonValue& obj, const char* noun,
                         std::string section,
                         std::initializer_list<std::string_view> allowed)
    : obj_(obj), noun_(noun), section_(std::move(section)) {
  CheckKeys(allowed);
}

void FieldReader::CheckKeys(
    std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, value] : obj_.Fields()) {
    bool known = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::ostringstream os;
      os << "unknown " << noun_ << " field \""
         << (section_.empty() ? key : section_ + "." + key) << "\"";
      throw InvalidArgument(os.str());
    }
  }
}

void FieldReader::FailKey(std::string_view key,
                          const std::string& message) const {
  std::ostringstream os;
  os << noun_ << " field \"";
  if (!section_.empty()) os << section_ << '.';
  os << key << "\": " << message;
  throw InvalidArgument(os.str());
}

double FieldReader::Number(const std::string& key, double fallback) const {
  const JsonValue* v = obj_.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) FailKey(key, "expected a number");
  return v->AsDouble();
}

double FieldReader::RequiredNumber(const std::string& key) const {
  if (obj_.Find(key) == nullptr) FailKey(key, "required");
  return Number(key, 0.0);
}

int FieldReader::Int(const std::string& key, int fallback) const {
  const JsonValue* v = obj_.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) FailKey(key, "expected an integer");
  const double d = v->AsDouble();
  if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    FailKey(key, "expected an integer");
  }
  return static_cast<int>(d);
}

std::int64_t FieldReader::NonNegativeInt(const std::string& key,
                                         std::int64_t fallback,
                                         double max) const {
  const double d = Number(key, static_cast<double>(fallback));
  if (d < 0.0 || d != std::floor(d) || d > max) {
    FailKey(key, "expected a non-negative integer");
  }
  return static_cast<std::int64_t>(d);
}

bool FieldReader::Bool(const std::string& key, bool fallback) const {
  const JsonValue* v = obj_.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) FailKey(key, "expected true or false");
  return v->AsBool();
}

std::string FieldReader::String(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = obj_.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) FailKey(key, "expected a string");
  return v->AsString();
}

const JsonValue* FieldReader::Object(const std::string& key) const {
  const JsonValue* v = obj_.Find(key);
  if (v != nullptr && !v->is_object()) FailKey(key, "expected an object");
  return v;
}

std::optional<FieldReader> FieldReader::Section(
    const std::string& key,
    std::initializer_list<std::string_view> allowed) const {
  const JsonValue* v = Object(key);
  if (v == nullptr) return std::nullopt;
  return FieldReader(*v, noun_, section_.empty() ? key : section_ + "." + key,
                     allowed);
}

SystemParams ParseParamsSection(const JsonValue& obj) {
  const FieldReader r(obj, "request", "params",
                      {"field_width", "field_height", "nodes", "rs", "rc",
                       "pd", "period", "speed", "window", "k"});
  SystemParams p = SystemParams::OnrDefaults();
  p.field_width = r.Number("field_width", p.field_width);
  p.field_height = r.Number("field_height", p.field_height);
  p.num_nodes = r.Int("nodes", p.num_nodes);
  p.sensing_range = r.Number("rs", p.sensing_range);
  p.comm_range = r.Number("rc", p.comm_range);
  p.detect_prob = r.Number("pd", p.detect_prob);
  p.period_length = r.Number("period", p.period_length);
  p.target_speed = r.Number("speed", p.target_speed);
  p.window_periods = r.Int("window", p.window_periods);
  p.threshold_reports = r.Int("k", p.threshold_reports);
  return p;
}

MsApproachOptions ParseOptionsSection(const JsonValue& obj) {
  const FieldReader r(obj, "request", "options",
                      {"gh", "g", "normalize", "reliability"});
  MsApproachOptions o;
  o.gh = r.Int("gh", o.gh);
  o.g = r.Int("g", o.g);
  o.normalize = r.Bool("normalize", o.normalize);
  o.node_reliability = r.Number("reliability", o.node_reliability);
  return o;
}

JsonValue ParamsToJson(const SystemParams& p) {
  JsonValue json = JsonValue::Object();
  json.Set("field_width", p.field_width)
      .Set("field_height", p.field_height)
      .Set("nodes", p.num_nodes)
      .Set("rs", p.sensing_range)
      .Set("rc", p.comm_range)
      .Set("pd", p.detect_prob)
      .Set("period", p.period_length)
      .Set("speed", p.target_speed)
      .Set("window", p.window_periods)
      .Set("k", p.threshold_reports);
  return json;
}

JsonValue OptionsToJson(const MsApproachOptions& o) {
  JsonValue json = JsonValue::Object();
  json.Set("gh", o.gh)
      .Set("g", o.g)
      .Set("normalize", o.normalize)
      .Set("reliability", o.node_reliability);
  return json;
}

bool IsSweepParam(const std::string& param) {
  return param == "nodes" || param == "speed" || param == "k" ||
         param == "window" || param == "rs" || param == "pd";
}

void ApplySweepValue(SystemParams& p, const std::string& param,
                     double value) {
  if (param == "nodes") {
    p.num_nodes = static_cast<int>(value);
  } else if (param == "speed") {
    p.target_speed = value;
  } else if (param == "k") {
    p.threshold_reports = static_cast<int>(value);
  } else if (param == "window") {
    p.window_periods = static_cast<int>(value);
  } else if (param == "rs") {
    p.sensing_range = value;
  } else {
    SPARSEDET_CHECK(param == "pd", "unexpected sweep param " + param);
    p.detect_prob = value;
  }
}

JsonValue AnalyzeToJson(const SystemParams& params,
                        const ScenarioReport& report) {
  JsonValue json = JsonValue::Object();
  json.Set("nodes", params.num_nodes)
      .Set("speed_mps", params.target_speed)
      .Set("k", params.threshold_reports)
      .Set("window_periods", params.window_periods)
      .Set("ms", report.ms)
      .Set("detection_probability", report.detection_probability)
      .Set("exact_detection_probability", report.exact_detection_probability)
      .Set("unnormalized_detection_probability",
           report.unnormalized_detection_probability)
      .Set("predicted_accuracy", report.predicted_accuracy)
      .Set("single_period_detection", report.single_period_detection)
      .Set("instantaneous_detection", report.instantaneous_detection)
      .Set("required_gh_99", report.required_caps_99.gh)
      .Set("required_g_99", report.required_caps_99.g)
      .Set("ms_states", report.ms_states)
      .Set("t_approach_states", report.t_approach_states);
  return json;
}

std::string OpName(RequestOp op) {
  switch (op) {
    case RequestOp::kAnalyze:
      return "analyze";
    case RequestOp::kSimulate:
      return "simulate";
    case RequestOp::kSweep:
      return "sweep";
    case RequestOp::kLatency:
      return "latency";
    case RequestOp::kFa:
      return "fa";
  }
  return "?";
}

Request ParseRequest(const JsonValue& json, int default_id) {
  SPARSEDET_REQUIRE(json.is_object(), "request must be a JSON object");
  const FieldReader r(json, "request", "",
                      {"id", "op", "params", "options", "sim", "sweep", "fa",
                       "tenant", "deadline_ms", "degrade"});

  Request request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string() && !id->is_number()) {
      r.FailKey("id", "expected a string or number");
    }
    request.id = *id;
  } else {
    request.id = JsonValue(default_id);
  }

  const JsonValue* op = json.Find("op");
  if (op == nullptr) r.FailKey("op", "required field is missing");
  if (!op->is_string()) r.FailKey("op", "expected a string");
  const std::string& name = op->AsString();
  if (name == "analyze") {
    request.op = RequestOp::kAnalyze;
  } else if (name == "simulate") {
    request.op = RequestOp::kSimulate;
  } else if (name == "sweep") {
    request.op = RequestOp::kSweep;
  } else if (name == "latency") {
    request.op = RequestOp::kLatency;
  } else if (name == "fa") {
    request.op = RequestOp::kFa;
  } else {
    r.FailKey("op",
              "expected one of analyze | simulate | sweep | latency | fa");
  }

  auto section = [&](const char* key, bool allowed) -> const JsonValue* {
    if (!allowed && json.Find(key) != nullptr) {
      r.FailKey(key, "not valid for op \"" + name + "\"");
    }
    return r.Object(key);
  };

  if (const JsonValue* params = section("params", true)) {
    request.params = ParseParamsSection(*params);
  }
  const bool analytic = request.op == RequestOp::kAnalyze ||
                        request.op == RequestOp::kSweep ||
                        request.op == RequestOp::kLatency;
  if (const JsonValue* options = section("options", analytic)) {
    request.options = ParseOptionsSection(*options);
  }
  if (const JsonValue* sim =
          section("sim", request.op == RequestOp::kSimulate)) {
    request.sim = ParseSim(*sim);
  }
  if (const JsonValue* sweep =
          section("sweep", request.op == RequestOp::kSweep)) {
    request.sweep = ParseSweep(*sweep);
  }
  if (const JsonValue* fa = section("fa", request.op == RequestOp::kFa)) {
    request.fa = ParseFa(*fa);
  }

  request.tenant = r.String("tenant", "");
  request.deadline_ms = r.NonNegativeInt("deadline_ms", 0);
  request.degrade = r.Bool("degrade", false);

  request.params.Validate();
  if (request.op == RequestOp::kSweep) {
    SweepValues(request.sweep);  // validates the grid size
  }
  return request;
}

std::vector<double> SweepValues(const SweepSpec& spec) {
  std::vector<double> values;
  for (double value = spec.from; value <= spec.to + 1e-9;
       value += spec.step) {
    values.push_back(value);
    SPARSEDET_REQUIRE(values.size() <= kMaxSweepPoints,
                      "sweep expands to too many points");
  }
  return values;
}

std::vector<WorkUnit> ExpandRequest(const Request& request) {
  std::vector<WorkUnit> units;
  if (request.op == RequestOp::kSweep) {
    for (double value : SweepValues(request.sweep)) {
      WorkUnit unit;
      unit.op = RequestOp::kSweep;
      unit.sweep_point = true;
      unit.params = request.params;
      ApplySweepValue(unit.params, request.sweep.param, value);
      unit.options = request.options;
      units.push_back(std::move(unit));
    }
    return units;
  }
  WorkUnit unit;
  unit.op = request.op;
  unit.params = request.params;
  unit.options = request.options;
  unit.sim = request.sim;
  unit.fa = request.fa;
  units.push_back(std::move(unit));
  return units;
}

std::string CanonicalKey(const WorkUnit& unit) {
  std::string key;
  switch (unit.op) {
    case RequestOp::kAnalyze:
      key = "analyze";
      AppendScenarioKey(key, unit.params);
      AppendOptionsKey(key, unit.options);
      break;
    case RequestOp::kSweep:  // one sweep point
      key = "point";
      AppendScenarioKey(key, unit.params);
      AppendOptionsKey(key, unit.options);
      break;
    case RequestOp::kLatency:
      key = "latency";
      AppendScenarioKey(key, unit.params);
      AppendOptionsKey(key, unit.options);
      break;
    case RequestOp::kFa:
      key = "fa";
      AppendScenarioKey(key, unit.params);
      AppendKey(key, "|pf=", unit.fa.false_alarm_prob,
                "|maxk=", unit.fa.max_k);
      break;
    case RequestOp::kSimulate:
      key = "sim";
      AppendScenarioKey(key, unit.params);
      AppendKey(key, "|trials=", unit.sim.trials, "|seed=", unit.sim.seed,
                "|pf=", unit.sim.false_alarm_prob,
                "|srel=", unit.sim.node_reliability,
                "|h=", unit.sim.distinct_nodes, "|motion=", unit.sim.motion,
                "|geom=", unit.sim.geometry,
                "|death=", unit.sim.node_death_prob,
                "|loss=", unit.sim.report_loss_prob);
      break;
  }
  return key;
}

JsonValue EvaluateUnit(const WorkUnit& unit) {
  switch (unit.op) {
    case RequestOp::kAnalyze: {
      const ScenarioReport report = AnalyzeScenario(unit.params, unit.options);
      return AnalyzeToJson(unit.params, report);
    }
    case RequestOp::kSweep: {
      JsonValue json = JsonValue::Object();
      json.Set("detection_probability",
               MsApproachAnalyze(unit.params, unit.options)
                   .detection_probability);
      return json;
    }
    case RequestOp::kLatency: {
      const LatencyDistribution latency =
          DetectionLatency(unit.params, unit.options);
      JsonValue cdf = JsonValue::Array();
      for (double p : latency.cdf) cdf.Append(p);
      JsonValue json = JsonValue::Object();
      json.Set("first_valid_prefix", latency.first_valid_prefix)
          .Set("cdf", std::move(cdf));
      if (!latency.cdf.empty() && latency.cdf.back() > 0.0) {
        json.Set("mean_conditional_latency",
                 latency.MeanConditionalLatency())
            .Set("conditional_p90", latency.ConditionalQuantile(0.9));
      } else {
        json.Set("mean_conditional_latency", JsonValue())
            .Set("conditional_p90", JsonValue());
      }
      return json;
    }
    case RequestOp::kFa: {
      SystemParams params = unit.params;
      JsonValue thresholds = JsonValue::Array();
      for (int k = 1; k <= unit.fa.max_k; ++k) {
        params.threshold_reports = k;
        JsonValue row = JsonValue::Object();
        row.Set("k", k).Set(
            "count_only",
            CountOnlySystemFaProbability(params, unit.fa.false_alarm_prob));
        thresholds.Append(std::move(row));
      }
      JsonValue json = JsonValue::Object();
      json.Set("expected_false_reports",
               ExpectedFalseReportsPerWindow(unit.params,
                                             unit.fa.false_alarm_prob))
          .Set("thresholds", std::move(thresholds));
      return json;
    }
    case RequestOp::kSimulate: {
      TrialConfig config;
      config.params = unit.params;
      config.false_alarm_prob = unit.sim.false_alarm_prob;
      config.node_reliability = unit.sim.node_reliability;
      config.node_death_prob = unit.sim.node_death_prob;
      config.report_loss_prob = unit.sim.report_loss_prob;
      config.geometry = unit.sim.geometry == "planar"
                            ? SensingGeometry::kPlanar
                            : SensingGeometry::kToroidal;
      std::unique_ptr<MotionModel> model;
      if (unit.sim.motion == "random-walk") {
        model = std::make_unique<RandomWalkMotion>(std::numbers::pi / 4.0);
      } else {
        model = std::make_unique<StraightLineMotion>();
      }
      config.motion = model.get();

      MonteCarloOptions mc;
      mc.trials = unit.sim.trials;
      mc.seed = unit.sim.seed;
      // Trial batches follow the --solver-threads setting (engine default
      // 1, so the pool stays the only parallelism unless the operator opts
      // in). Estimates are bit-identical regardless (per-trial RNG
      // substreams with a deterministic success count).
      mc.threads = 0;
      const ProportionEstimate est =
          unit.sim.distinct_nodes > 1
              ? EstimateKNodeDetectionProbability(config,
                                                  unit.sim.distinct_nodes, mc)
              : EstimateDetectionProbability(config, mc);
      JsonValue json = JsonValue::Object();
      json.Set("trials", est.trials)
          .Set("detections", est.successes)
          .Set("detection_probability", est.point)
          .Set("ci_lo", est.lo)
          .Set("ci_hi", est.hi);
      return json;
    }
  }
  throw InternalError("unhandled work unit op");
}

JsonValue ComposeResponse(const Request& request,
                          const std::vector<const JsonValue*>& unit_results) {
  SPARSEDET_CHECK(!unit_results.empty(), "request composed with no units");
  if (request.op != RequestOp::kSweep) {
    SPARSEDET_CHECK(unit_results.size() == 1,
                    "non-sweep request must have exactly one unit");
    return *unit_results[0];
  }
  const std::vector<double> values = SweepValues(request.sweep);
  SPARSEDET_CHECK(values.size() == unit_results.size(),
                  "sweep unit count mismatch");
  JsonValue points = JsonValue::Array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    JsonValue point = JsonValue::Object();
    point.Set("value", values[i])
        .Set("detection_probability",
             *unit_results[i]->Find("detection_probability"));
    points.Append(std::move(point));
  }
  JsonValue json = JsonValue::Object();
  json.Set("param", request.sweep.param).Set("points", std::move(points));
  return json;
}

JsonValue DegradedAnalyzeResult(const SystemParams& params) {
  JsonValue json = JsonValue::Object();
  json.Set("nodes", params.num_nodes)
      .Set("k", params.threshold_reports)
      .Set("window_periods", params.window_periods)
      .Set("single_period_detection",
           SinglePeriodDetectionProbability(params));
  try {
    SApproachOptions options;
    options.cap = 1;
    const SApproachResult s = SApproachAnalyze(params, options);
    json.Set("detection_probability", s.detection_probability)
        .Set("eta_s", s.predicted_accuracy)
        .Set("degraded_mode", "s_approach_g1");
  } catch (const Error&) {
    // The S-approach needs M > ms; outside that regime the M = 1 closed
    // form is the only cheap answer (a lower bound, with no eta_S).
    json.Set("detection_probability",
             SinglePeriodDetectionProbability(params))
        .Set("eta_s", JsonValue())
        .Set("degraded_mode", "single_period");
  }
  return json;
}

}  // namespace sparsedet::engine
