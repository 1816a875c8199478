#include "opt/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "core/false_alarm_model.h"

namespace sparsedet::opt {

void BatchGate::Start(std::int64_t deadline_ms) {
  deadline_ = deadline_ms > 0 ? resilience::Deadline::AfterMillis(deadline_ms)
                              : resilience::Deadline();
}

bool BatchGate::KeepGoing() {
  if (hooks_.cancel != nullptr) hooks_.cancel->ThrowIfCancelled();
  if (deadline_.set() && deadline_.Expired()) return Refuse();
  return true;
}

bool BatchGate::Admit(std::size_t batch_size) {
  if (hooks_.admit && !hooks_.admit(batch_size, deadline_)) return Refuse();
  return true;
}

bool BatchGate::Refuse() {
  degraded_ = true;
  if (deadline_partial_ != nullptr) deadline_partial_->Inc();
  return false;
}

OptMetrics::OptMetrics(obs::MetricsRegistry& registry)
    : runs(&registry.counter("opt_runs_total")),
      candidates(&registry.counter("opt_candidates_total")),
      batches(&registry.counter("opt_batches_total")),
      feasible(&registry.counter("opt_feasible_total")),
      invalid(&registry.counter("opt_invalid_total")),
      solve_errors(&registry.counter("opt_solve_errors_total")),
      refine_rounds(&registry.counter("opt_refine_rounds_total")),
      deadline_partial(&registry.counter("opt_deadline_partial_total")),
      active(&registry.gauge("opt_active")),
      last_evaluated(&registry.gauge("opt_last_evaluated")),
      last_frontier(&registry.gauge("opt_last_frontier_size")),
      sweep_batch_us(&registry.histogram("opt_iteration_us",
                                         {{"phase", "sweep"}},
                                         obs::DefaultLatencyBoundsUs())),
      refine_batch_us(&registry.histogram("opt_iteration_us",
                                          {{"phase", "refine"}},
                                          obs::DefaultLatencyBoundsUs())) {}

Optimizer::Optimizer(const OptimizeSpec& spec, SolveBackend& backend,
                     obs::MetricsRegistry* registry, OptimizerHooks hooks)
    : spec_(spec),
      backend_(backend),
      metrics_(registry != nullptr ? std::make_unique<OptMetrics>(*registry)
                                   : nullptr),
      gate_(std::move(hooks),
            metrics_ ? metrics_->deadline_partial : nullptr) {}

bool Optimizer::EvaluateBatch(const std::vector<Candidate>& batch,
                              bool refining) {
  if (batch.empty()) return true;
  if (!gate_.Admit(batch.size())) return false;
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::string> lines;
  lines.reserve(batch.size());
  for (const Candidate& c : batch) {
    lines.push_back(PointRequestLine(CandidateParams(spec_, c), spec_.options,
                                     next_id_++));
  }
  const std::vector<JsonValue> responses = backend_.Solve(lines);
  ++batches_;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const double detection = PointDetection(responses[i]);
    if (detection < 0.0) {
      ++solve_errors_;
      if (metrics_) metrics_->solve_errors->Inc();
      continue;
    }
    Eval e;
    e.candidate = batch[i];
    e.detection = detection;
    const SystemParams cparams = CandidateParams(spec_, batch[i]);
    const double pf_awake = batch[i].duty * spec_.pf;
    e.system_fa = CountOnlySystemFaProbability(cparams, pf_awake);
    e.energy = AnalyzeEnergy(
        cparams, spec_.energy, batch[i].duty,
        SteadyStateReportRate(batch[i].duty, spec_.pf), spec_.mean_hops);
    e.feasible = e.detection >= spec_.min_detection &&
                 e.system_fa <= spec_.max_fa &&
                 e.energy.lifetime_days >= spec_.min_lifetime_days;
    if (e.feasible && metrics_) metrics_->feasible->Inc();
    evaluated_.push_back(std::move(e));
  }

  if (metrics_) {
    metrics_->candidates->Inc(batch.size());
    metrics_->batches->Inc();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    (refining ? metrics_->refine_batch_us : metrics_->sweep_batch_us)
        ->Record(us);
  }
  return true;
}

std::vector<Candidate> Optimizer::Neighborhood(const Candidate& center,
                                               int round) const {
  const double scale = std::pow(0.5, round);
  // Candidate values along one axis: the center plus center +/- delta where
  // delta is the axis step halved `round` times (integer axes floor at a
  // delta of 1), clamped to the axis's declared [from, to] domain.
  const auto axis_values = [&](const AxisSpec& axis, double center_value,
                               bool integer) {
    std::vector<double> values{center_value};
    if (!axis.set) return values;
    double delta = axis.step * scale;
    if (integer) delta = std::max(1.0, std::round(delta));
    for (double v : {center_value - delta, center_value + delta}) {
      if (integer) v = std::round(v);
      if (v < axis.from - 1e-9 || v > axis.to + 1e-9) continue;
      if (std::find(values.begin(), values.end(), v) == values.end()) {
        values.push_back(v);
      }
    }
    std::sort(values.begin(), values.end());
    return values;
  };

  const std::vector<double> nodes =
      axis_values(spec_.nodes, center.nodes, /*integer=*/true);
  const std::vector<double> ks = axis_values(spec_.k, center.k, true);
  const std::vector<double> windows =
      axis_values(spec_.window, center.window, true);
  const std::vector<double> periods =
      axis_values(spec_.period, center.period, false);
  const std::vector<double> duties =
      axis_values(spec_.duty, center.duty, false);

  std::vector<Candidate> fresh;
  for (double n : nodes) {
    for (double k : ks) {
      for (double m : windows) {
        for (double t : periods) {
          for (double d : duties) {
            Candidate c;
            c.nodes = static_cast<int>(n);
            c.k = static_cast<int>(k);
            c.window = static_cast<int>(m);
            c.period = t;
            c.duty = std::min(d, 1.0);
            if (seen_.count(CandidateKey(c)) != 0) continue;
            try {
              CandidateParams(spec_, c).Validate();
            } catch (const Error&) {
              continue;
            }
            fresh.push_back(c);
          }
        }
      }
    }
  }
  return fresh;
}

double Optimizer::ObjectiveValue(const Eval& e) const {
  switch (spec_.objective) {
    case Objective::kMinNodes:
      return static_cast<double>(e.candidate.nodes);
    case Objective::kMinEnergy:
      return e.energy.drain_per_period;
    case Objective::kMaxDetection:
      return e.detection;
  }
  return 0.0;
}

bool Optimizer::Better(const Eval& a, const Eval& b) const {
  const double av = ObjectiveValue(a);
  const double bv = ObjectiveValue(b);
  if (av != bv) {
    return spec_.objective == Objective::kMaxDetection ? av > bv : av < bv;
  }
  return CandidateLess(a.candidate, b.candidate);
}

const Optimizer::Eval* Optimizer::CurrentBest() const {
  const Eval* best = nullptr;
  for (const Eval& e : evaluated_) {
    if (!e.feasible) continue;
    if (best == nullptr || Better(e, *best)) best = &e;
  }
  return best;
}

JsonValue Optimizer::EvalJson(const Eval& e) const {
  JsonValue obj = JsonValue::Object();
  obj.Set("nodes", e.candidate.nodes)
      .Set("k", e.candidate.k)
      .Set("window", e.candidate.window)
      .Set("period", e.candidate.period)
      .Set("duty", e.candidate.duty)
      .Set("detection_probability", e.detection)
      .Set("system_fa", e.system_fa)
      .Set("drain_per_period", e.energy.drain_per_period)
      .Set("lifetime_days", e.energy.lifetime_days)
      .Set("objective_value", ObjectiveValue(e));
  return obj;
}

JsonValue Optimizer::Run() {
  if (metrics_) metrics_->runs->Inc();
  ActiveGuard active(metrics_ ? metrics_->active : nullptr);
  gate_.Start(spec_.deadline_ms);

  const std::vector<Candidate> grid = CoarseGrid(spec_, &invalid_);
  if (metrics_ && invalid_ > 0) metrics_->invalid->Inc(invalid_);
  for (const Candidate& c : grid) seen_.insert(CandidateKey(c));

  // Phase 1: the coarse sweep, in deterministic grid order. The deadline
  // and external cancellation are consulted between batches only, so the
  // worst-case overrun is one batch.
  std::size_t pos = 0;
  while (pos < grid.size()) {
    if (!gate_.KeepGoing()) break;
    const std::size_t n = std::min(kSolveBatchSize, grid.size() - pos);
    const std::vector<Candidate> batch(grid.begin() + pos,
                                       grid.begin() + pos + n);
    if (!EvaluateBatch(batch, /*refining=*/false)) break;
    pos += n;
  }

  // Phase 2: local refinement around the incumbent (optimize mode, and
  // only when the sweep ran to completion — refining a truncated sweep
  // would anchor on an arbitrary prefix).
  if (spec_.mode == SearchMode::kOptimize && !gate_.degraded()) {
    for (int round = 1; round <= spec_.refine_rounds; ++round) {
      const Eval* best = CurrentBest();
      if (best == nullptr) break;
      const std::vector<Candidate> neighborhood =
          Neighborhood(best->candidate, round);
      if (neighborhood.empty()) continue;
      for (const Candidate& c : neighborhood) seen_.insert(CandidateKey(c));
      if (!gate_.KeepGoing()) break;
      if (!EvaluateBatch(neighborhood, /*refining=*/true)) break;
      ++refine_rounds_done_;
      if (metrics_) metrics_->refine_rounds->Inc();
    }
  }

  std::size_t feasible_count = 0;
  for (const Eval& e : evaluated_) {
    if (e.feasible) ++feasible_count;
  }

  JsonValue result = JsonValue::Object();
  result.Set("objective", ObjectiveName(spec_.objective))
      .Set("mode", SearchModeName(spec_.mode))
      .Set("degraded", gate_.degraded())
      .Set("grid", static_cast<std::int64_t>(grid.size()))
      .Set("evaluated", static_cast<std::int64_t>(evaluated_.size()))
      .Set("feasible", static_cast<std::int64_t>(feasible_count))
      .Set("invalid", static_cast<std::int64_t>(invalid_))
      .Set("solve_errors", static_cast<std::int64_t>(solve_errors_))
      .Set("batches", static_cast<std::int64_t>(batches_))
      .Set("refine_rounds", refine_rounds_done_);

  const Eval* best = CurrentBest();
  result.Set("best", best != nullptr ? EvalJson(*best) : JsonValue());

  if (spec_.mode == SearchMode::kFrontier) {
    // Non-dominated set over (drain minimized, detection maximized) among
    // the feasible candidates: sort by drain ascending (detection
    // descending, then CandidateLess inside ties, for determinism) and
    // keep each strict improvement in detection.
    std::vector<const Eval*> feasible;
    feasible.reserve(feasible_count);
    for (const Eval& e : evaluated_) {
      if (e.feasible) feasible.push_back(&e);
    }
    std::sort(feasible.begin(), feasible.end(),
              [](const Eval* a, const Eval* b) {
                if (a->energy.drain_per_period != b->energy.drain_per_period) {
                  return a->energy.drain_per_period <
                         b->energy.drain_per_period;
                }
                if (a->detection != b->detection) {
                  return a->detection > b->detection;
                }
                return CandidateLess(a->candidate, b->candidate);
              });
    JsonValue frontier = JsonValue::Array();
    double best_detection = -1.0;
    std::size_t frontier_size = 0;
    for (const Eval* e : feasible) {
      if (e->detection <= best_detection) continue;
      best_detection = e->detection;
      frontier.Append(EvalJson(*e));
      ++frontier_size;
    }
    result.Set("frontier", std::move(frontier));
    if (metrics_) {
      metrics_->last_frontier->Set(static_cast<std::int64_t>(frontier_size));
    }
  }

  if (metrics_) {
    metrics_->last_evaluated->Set(static_cast<std::int64_t>(evaluated_.size()));
  }
  return result;
}

JsonValue HandleLongCommand(
    const std::string& name, const JsonValue& command,
    const std::function<JsonValue(const JsonValue& spec)>& run) {
  JsonValue response = JsonValue::Object();
  if (command.is_object()) {
    const JsonValue* id = command.Find("id");
    if (id != nullptr && (id->is_string() || id->is_number())) {
      response.Set("id", *id);
    }
  }
  try {
    if (!command.is_object()) {
      throw InvalidArgument(name + " command must be a JSON object");
    }
    for (const auto& [key, value] : command.Fields()) {
      (void)value;
      if (key != "cmd" && key != "id" && key != "tenant" && key != "spec") {
        throw InvalidArgument(name + " command: unknown key \"" + key + "\"");
      }
    }
    const JsonValue* spec = command.Find("spec");
    if (spec == nullptr) {
      throw InvalidArgument(name + " command: missing \"spec\" object");
    }
    response.Set("result", run(*spec));
  } catch (const resilience::Cancelled& e) {
    response
        .Set("error", name + " cancelled: " +
                          resilience::CancelReasonName(e.reason()))
        .Set("error_code", resilience::CancelErrorCode(e.reason()));
  } catch (const InvalidArgument& e) {
    response.Set("error", std::string(e.what()))
        .Set("error_code", "invalid_argument");
  } catch (const Error& e) {
    response.Set("error", std::string(e.what()))
        .Set("error_code", "internal");
  }
  return response;
}

JsonValue HandleOptimizeCommand(const JsonValue& command,
                                SolveBackend& backend,
                                obs::MetricsRegistry* registry,
                                const OptimizerHooks& hooks) {
  return HandleLongCommand("optimize", command, [&](const JsonValue& spec) {
    return Optimizer(ParseOptimizeSpec(spec), backend, registry, hooks).Run();
  });
}

void WriteRowsThenSummary(const JsonValue& result,
                          const std::string& rows_key, std::ostream& out) {
  const JsonValue* rows = result.is_object() ? result.Find(rows_key) : nullptr;
  if (rows == nullptr) {
    out << result.ToString() << '\n';
    return;
  }
  for (const JsonValue& row : rows->Items()) out << row.ToString() << '\n';
  JsonValue summary = JsonValue::Object();
  for (const auto& [key, value] : result.Fields()) {
    if (key == rows_key) {
      summary.Set(rows_key + "_size", static_cast<std::int64_t>(value.Size()));
    } else {
      summary.Set(key, value);
    }
  }
  out << summary.ToString() << '\n';
}

}  // namespace sparsedet::opt
