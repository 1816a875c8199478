#include "adapt/spec.h"

#include <sstream>

#include "common/error.h"
#include "engine/request.h"

namespace sparsedet::adapt {

std::string AdaptModeName(AdaptMode mode) {
  return mode == AdaptMode::kClosedLoop ? "closed_loop" : "analyze";
}

std::size_t AdaptSpec::EpochGridSize() const {
  return k.Count() * window.Count();
}

AdaptSpec ParseAdaptSpec(const JsonValue& json) {
  if (!json.is_object()) {
    throw InvalidArgument("adapt spec must be a JSON object");
  }
  const engine::FieldReader r(
      json, "spec", "",
      {"mode", "params", "options", "failure", "horizon_epochs",
       "epoch_periods", "constraints", "search", "controller", "estimator",
       "sim", "deadline_ms"});

  AdaptSpec spec;
  const std::string mode = r.String("mode", "analyze");
  if (mode == "analyze") {
    spec.mode = AdaptMode::kAnalyze;
  } else if (mode == "closed_loop") {
    spec.mode = AdaptMode::kClosedLoop;
  } else {
    r.FailKey("mode", "expected \"analyze\" or \"closed_loop\"");
  }

  if (const JsonValue* params = r.Object("params")) {
    spec.params = engine::ParseParamsSection(*params);
  }
  if (const JsonValue* options = r.Object("options")) {
    spec.options = engine::ParseOptionsSection(*options);
  }

  if (const auto f = r.Section("failure", {"model", "mean_lifetime_s",
                                           "shape", "report_loss"})) {
    const std::string model = f->String("model", "exponential");
    if (model == "exponential") {
      spec.failure.kind = FailureKind::kExponential;
    } else if (model == "weibull") {
      spec.failure.kind = FailureKind::kWeibull;
    } else {
      f->FailKey("model", "expected \"exponential\" or \"weibull\"");
    }
    spec.failure.mean_lifetime_s =
        f->Number("mean_lifetime_s", spec.failure.mean_lifetime_s);
    spec.failure.weibull_shape = f->Number("shape", spec.failure.weibull_shape);
    spec.failure.report_loss_prob =
        f->Number("report_loss", spec.failure.report_loss_prob);
    try {
      spec.failure.Validate();
    } catch (const InvalidArgument& e) {
      r.FailKey("failure", e.what());
    }
  }

  spec.horizon_epochs = r.Int("horizon_epochs", spec.horizon_epochs);
  if (spec.horizon_epochs < 1 || spec.horizon_epochs > kMaxHorizonEpochs) {
    std::ostringstream os;
    os << "expected in [1, " << kMaxHorizonEpochs << "]";
    r.FailKey("horizon_epochs", os.str());
  }
  spec.epoch_periods = r.Int("epoch_periods", spec.epoch_periods);
  if (spec.epoch_periods < 0 || spec.epoch_periods > 100000) {
    r.FailKey("epoch_periods", "expected in [0, 100000]");
  }

  if (const auto c =
          r.Section("constraints", {"min_detection", "pf", "max_fa"})) {
    spec.min_detection = c->Number("min_detection", spec.min_detection);
    spec.pf = c->Number("pf", spec.pf);
    spec.max_fa = c->Number("max_fa", spec.max_fa);
    if (spec.min_detection < 0.0 || spec.min_detection > 1.0) {
      c->FailKey("min_detection", "expected in [0, 1]");
    }
    if (spec.pf < 0.0 || spec.pf > 1.0) c->FailKey("pf", "expected in [0, 1]");
    if (spec.max_fa < 0.0 || spec.max_fa > 1.0) {
      c->FailKey("max_fa", "expected in [0, 1]");
    }
  }

  if (const auto search = r.Section("search", {"k", "window"})) {
    spec.k = opt::ParseAxis(*search, "k", /*integer=*/true);
    if (spec.k.set && spec.k.from < 1.0) {
      search->FailKey("k.from", "expected >= 1");
    }
    spec.window = opt::ParseAxis(*search, "window", /*integer=*/true);
    if (spec.window.set && spec.window.from < 1.0) {
      search->FailKey("window.from", "expected >= 1");
    }
  }

  if (const auto c =
          r.Section("controller", {"margin", "min_dwell_epochs"})) {
    spec.margin = c->Number("margin", spec.margin);
    spec.min_dwell_epochs = c->Int("min_dwell_epochs", spec.min_dwell_epochs);
    if (spec.margin < 0.0 || spec.margin > 1.0) {
      c->FailKey("margin", "expected in [0, 1]");
    }
    if (spec.min_dwell_epochs < 0 || spec.min_dwell_epochs > 1000) {
      c->FailKey("min_dwell_epochs", "expected in [0, 1000]");
    }
  }

  if (const auto e = r.Section("estimator", {"source", "windows", "z"})) {
    const std::string source = e->String("source", "oracle");
    if (source == "oracle") {
      spec.estimate_from_reports = false;
    } else if (source == "reports") {
      spec.estimate_from_reports = true;
    } else {
      e->FailKey("source", "expected \"oracle\" or \"reports\"");
    }
    spec.estimator_windows = e->Int("windows", spec.estimator_windows);
    spec.estimator_z = e->Number("z", spec.estimator_z);
    if (spec.estimator_windows < 1 || spec.estimator_windows > 64) {
      e->FailKey("windows", "expected in [1, 64]");
    }
    if (!(spec.estimator_z > 0.0) || spec.estimator_z > 10.0) {
      e->FailKey("z", "expected in (0, 10]");
    }
  }

  if (const auto sim = r.Section("sim", {"seed", "trials"})) {
    spec.sim_seed = static_cast<std::uint64_t>(sim->NonNegativeInt(
        "seed", static_cast<std::int64_t>(spec.sim_seed)));
    spec.sim_trials = sim->Int("trials", spec.sim_trials);
    if (spec.sim_trials < 0 || spec.sim_trials > 1000000) {
      sim->FailKey("trials", "expected in [0, 1000000]");
    }
  }

  spec.deadline_ms = r.NonNegativeInt("deadline_ms", spec.deadline_ms);

  // The estimator can only invert the report PMF when there are reports
  // to observe: the quiescent rate is pf (thinned by transport loss).
  if (spec.estimate_from_reports && !(spec.pf > 0.0)) {
    r.FailKey("estimator.source",
              "\"reports\" requires constraints.pf > 0 (the quiescent report "
              "rate); use estimator.source \"oracle\" for a lossless census");
  }

  // Total inner solves are bounded the same way the optimizer bounds its
  // grid: per-epoch candidates x horizon must fit the candidate cap.
  const std::size_t per_epoch = spec.EpochGridSize();
  if (per_epoch > opt::kMaxGridCandidates ||
      static_cast<std::size_t>(spec.horizon_epochs) >
          opt::kMaxGridCandidates / (per_epoch == 0 ? 1 : per_epoch)) {
    std::ostringstream os;
    os << "spec field \"search\": horizon x grid is "
       << static_cast<double>(per_epoch) * spec.horizon_epochs
       << " candidates, max " << opt::kMaxGridCandidates;
    throw InvalidArgument(os.str());
  }

  // The fixed scenario must itself be valid; per-candidate overrides are
  // re-validated (and invalid combinations dropped) during enumeration.
  spec.params.Validate();
  return spec;
}

JsonValue SpecToJson(const AdaptSpec& spec) {
  JsonValue failure = JsonValue::Object();
  failure.Set("model", std::string(FailureKindName(spec.failure.kind)))
      .Set("mean_lifetime_s", spec.failure.mean_lifetime_s)
      .Set("shape", spec.failure.weibull_shape)
      .Set("report_loss", spec.failure.report_loss_prob);

  JsonValue constraints = JsonValue::Object();
  constraints.Set("min_detection", spec.min_detection)
      .Set("pf", spec.pf)
      .Set("max_fa", spec.max_fa);

  JsonValue search = JsonValue::Object();
  if (spec.k.set) search.Set("k", opt::AxisToJson(spec.k));
  if (spec.window.set) search.Set("window", opt::AxisToJson(spec.window));

  JsonValue controller = JsonValue::Object();
  controller.Set("margin", spec.margin)
      .Set("min_dwell_epochs", spec.min_dwell_epochs);

  JsonValue estimator = JsonValue::Object();
  estimator
      .Set("source",
           std::string(spec.estimate_from_reports ? "reports" : "oracle"))
      .Set("windows", spec.estimator_windows)
      .Set("z", spec.estimator_z);

  JsonValue sim = JsonValue::Object();
  sim.Set("seed", static_cast<std::int64_t>(spec.sim_seed))
      .Set("trials", spec.sim_trials);

  JsonValue json = JsonValue::Object();
  json.Set("mode", AdaptModeName(spec.mode))
      .Set("params", engine::ParamsToJson(spec.params))
      .Set("options", engine::OptionsToJson(spec.options))
      .Set("failure", std::move(failure))
      .Set("horizon_epochs", spec.horizon_epochs)
      .Set("epoch_periods", spec.epoch_periods)
      .Set("constraints", std::move(constraints))
      .Set("search", std::move(search))
      .Set("controller", std::move(controller))
      .Set("estimator", std::move(estimator))
      .Set("sim", std::move(sim))
      .Set("deadline_ms", spec.deadline_ms);
  return json;
}

}  // namespace sparsedet::adapt
