#include "adapt/adapt.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/controller.h"
#include "adapt/estimator.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/false_alarm_model.h"
#include "engine/request.h"
#include "sim/closed_loop.h"

namespace sparsedet::adapt {
namespace {

// Monte-Carlo validation of one epoch's chosen setting at the realized
// alive count (transport loss included; death is already realized in the
// alive count, so the per-period death process stays off).
std::string SimulateRequestLine(const SystemParams& p, int trials,
                                std::uint64_t seed, double report_loss,
                                std::uint64_t id) {
  JsonValue sim = JsonValue::Object();
  sim.Set("trials", trials)
      .Set("seed", static_cast<std::int64_t>(seed))
      .Set("loss", report_loss);
  JsonValue req = JsonValue::Object();
  req.Set("id", static_cast<std::int64_t>(id))
      .Set("op", "simulate")
      .Set("params", engine::ParamsToJson(p))
      .Set("sim", std::move(sim));
  return req.ToString();
}

// Rng substream labels for the closed loop's two consumers; disjoint from
// each other and stable across releases (they are part of the
// reproducibility contract).
constexpr std::uint64_t kQuiescentLabelBase = 0xADA0'0000ULL;
constexpr std::uint64_t kValidateLabelBase = 0xADB0'0000ULL;

// Engine seeds must survive the request parser's double round-trip (it
// accepts sim.seed up to engine::kMaxExactJsonInt, 2^53 - 1).
constexpr std::uint64_t kSeedMask = (1ULL << 53) - 1;

class Runner {
 public:
  Runner(const AdaptSpec& spec, opt::SolveBackend& backend,
         obs::MetricsRegistry* registry, const AdaptHooks& hooks)
      : spec_(spec),
        backend_(backend),
        metrics_(registry != nullptr ? std::make_unique<AdaptMetrics>(
                                           *registry)
                                     : nullptr),
        gate_(hooks, metrics_ ? metrics_->deadline_partial : nullptr) {}

  JsonValue Run();

 private:
  // False = stop the loop now (admission refused), with the epochs
  // completed so far as the partial result.
  bool Solve(const std::vector<std::string>& lines,
             std::vector<JsonValue>* responses) {
    if (!gate_.Admit(lines.size())) return false;
    *responses = backend_.Solve(lines);
    return true;
  }

  // The candidate scenario at one population: N/k/M replaced, Pd thinned
  // by transport loss. Returns nullopt when the combination is invalid
  // (e.g. k exceeding the possible report count at this population).
  std::optional<SystemParams> CandidateParamsAt(int nodes, int k,
                                                int window) const {
    SystemParams p = spec_.params;
    p.num_nodes = nodes;
    p.threshold_reports = k;
    p.window_periods = window;
    p.detect_prob = spec_.failure.EffectiveDetectProb(spec_.params.detect_prob);
    try {
      p.Validate();
    } catch (const Error&) {
      return std::nullopt;
    }
    return p;
  }

  AdaptSpec spec_;
  opt::SolveBackend& backend_;
  std::unique_ptr<AdaptMetrics> metrics_;
  opt::BatchGate gate_;

  std::uint64_t next_id_ = 1;
  std::int64_t solve_errors_ = 0;
};

JsonValue Runner::Run() {
  if (metrics_) metrics_->runs->Inc();
  opt::ActiveGuard active(metrics_ ? metrics_->active : nullptr);
  gate_.Start(spec_.deadline_ms);

  const int epoch_periods = spec_.EpochPeriods();
  const bool closed_loop = spec_.mode == AdaptMode::kClosedLoop;
  const double q_eff =
      spec_.pf * (1.0 - spec_.failure.report_loss_prob);

  // The (k, M) candidate grid, shared by every epoch: axis values plus the
  // spec's initial setting, in deterministic (window, k) order.
  std::vector<std::pair<int, int>> grid;  // (window, k)
  {
    const std::vector<double> ks =
        spec_.k.set ? spec_.k.Values()
                    : std::vector<double>{static_cast<double>(
                          spec_.params.threshold_reports)};
    const std::vector<double> windows =
        spec_.window.set ? spec_.window.Values()
                         : std::vector<double>{static_cast<double>(
                               spec_.params.window_periods)};
    for (double m : windows) {
      for (double k : ks) {
        grid.emplace_back(static_cast<int>(m), static_cast<int>(k));
      }
    }
    grid.emplace_back(spec_.params.window_periods,
                      spec_.params.threshold_reports);
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  }

  std::optional<FailureTrajectory> trajectory;
  std::optional<LivePopulationEstimator> estimator;
  Rng seed_base(spec_.sim_seed);
  if (closed_loop) {
    trajectory.emplace(spec_.params.num_nodes, spec_.failure, spec_.sim_seed);
    if (spec_.estimate_from_reports) {
      estimator.emplace(q_eff, spec_.estimator_windows, spec_.estimator_z);
    }
  }

  ControllerConfig config;
  config.min_detection = spec_.min_detection;
  config.max_fa = spec_.max_fa;
  config.margin = spec_.margin;
  config.min_dwell_epochs = spec_.min_dwell_epochs;
  AdaptController controller(config, spec_.params.threshold_reports,
                             spec_.params.window_periods);

  JsonValue rows = JsonValue::Array();
  int epochs_run = 0;
  std::int64_t retunes = 0;
  bool held = true;
  double prev_survival = 1.0;
  int final_population = spec_.params.num_nodes;

  for (int e = 0; e < spec_.horizon_epochs; ++e) {
    if (!gate_.KeepGoing()) break;
    const auto start = std::chrono::steady_clock::now();

    const double t =
        static_cast<double>(e) * epoch_periods * spec_.params.period_length;
    const double survival = spec_.failure.SurvivalAt(t);
    const double expected_live = survival * spec_.params.num_nodes;

    // --- Population estimate the decision runs against. ---
    int alive = 0;
    int population = spec_.params.num_nodes;
    JsonValue estimate_json;
    if (closed_loop) {
      alive = trajectory->AliveAt(t);
      if (estimator.has_value()) {
        if (e > 0 && prev_survival > 0.0) {
          estimator->Age(std::min(1.0, survival / prev_survival));
        }
        Rng qrng = seed_base.Substream(kQuiescentLabelBase +
                                       static_cast<std::uint64_t>(e));
        const int reports =
            QuiescentReportCount(alive, epoch_periods, q_eff, qrng);
        estimator->Observe(reports, epoch_periods);
        const PopulationEstimate est = estimator->Estimate();
        // Zero reports so far says nothing about N beyond the upper bound
        // (q·N·periods may just be small); until data arrives the best
        // belief is the failure-model prior, which the deployment knows.
        population = est.live > 0.0
                         ? static_cast<int>(std::llround(est.live))
                         : static_cast<int>(std::llround(expected_live));
        population = std::clamp(population, 1, spec_.params.num_nodes);
        estimate_json = JsonValue::Object();
        estimate_json.Set("live", est.live)
            .Set("lo", est.lo)
            .Set("hi", est.hi)
            .Set("reports", reports)
            .Set("windows", est.windows);
        if (metrics_) {
          metrics_->estimated_population->Set(
              static_cast<std::int64_t>(std::llround(est.live)));
        }
      } else {
        population = std::max(alive, 1);
        if (metrics_) metrics_->estimated_population->Set(population);
      }
      if (metrics_) metrics_->live_population->Set(alive);
    } else {
      if (metrics_) {
        const std::int64_t live =
            static_cast<std::int64_t>(std::llround(expected_live));
        metrics_->live_population->Set(live);
        metrics_->estimated_population->Set(live);
      }
    }

    // --- Evaluate the candidate grid at this population. ---
    // Analyze mode keeps N fixed and thins through the reliability scalar
    // (the AnalyzeDegrading view); closed_loop replaces N with the integer
    // estimate, exactly what a base station could actually do.
    MsApproachOptions epoch_options = spec_.options;
    double pf_eff = spec_.pf * (1.0 - spec_.failure.report_loss_prob);
    if (!closed_loop) {
      epoch_options.node_reliability =
          spec_.options.node_reliability * survival;
      pf_eff *= survival;
    }

    std::vector<CandidateEval> evals;
    std::vector<std::pair<int, int>> solved;  // (window, k) per line
    std::vector<std::string> lines;
    for (const auto& [window, k] : grid) {
      const std::optional<SystemParams> p =
          CandidateParamsAt(population, k, window);
      if (!p.has_value()) continue;
      lines.push_back(opt::PointRequestLine(*p, epoch_options, next_id_++));
      solved.emplace_back(window, k);
    }
    if (lines.empty()) {
      throw Error("adapt: no valid candidate setting at population " +
                  std::to_string(population));
    }
    std::vector<JsonValue> responses;
    if (!Solve(lines, &responses)) break;
    if (metrics_) metrics_->candidates->Inc(lines.size());
    for (std::size_t i = 0; i < solved.size(); ++i) {
      const double detection = opt::PointDetection(responses[i]);
      if (detection < 0.0) {
        ++solve_errors_;
        if (metrics_) metrics_->solve_errors->Inc();
        continue;
      }
      CandidateEval eval;
      eval.window = solved[i].first;
      eval.k = solved[i].second;
      eval.detection = detection;
      const SystemParams p =
          *CandidateParamsAt(population, eval.k, eval.window);
      eval.system_fa = CountOnlySystemFaProbability(p, pf_eff);
      evals.push_back(eval);
    }
    if (evals.empty()) {
      throw Error(
          "adapt: every candidate failed to solve (is the window larger "
          "than the traversal span ms?)");
    }

    const Decision decision = controller.Decide(evals);
    if (decision.retuned) {
      ++retunes;
      if (metrics_) metrics_->retunes->Inc();
    }
    if (!decision.feasible) {
      held = false;
      if (metrics_) metrics_->infeasible_epochs->Inc();
    }

    JsonValue row = JsonValue::Object();
    row.Set("epoch", e)
        .Set("time_s", t)
        .Set("survival", survival)
        .Set("expected_live", expected_live);
    if (closed_loop) {
      row.Set("alive", alive);
      if (estimator.has_value()) row.Set("estimate", std::move(estimate_json));
    }
    row.Set("population", population)
        .Set("k", decision.k)
        .Set("window", decision.window)
        .Set("retuned", decision.retuned)
        .Set("feasible", decision.feasible)
        .Set("detection_probability", decision.detection)
        .Set("system_fa", decision.system_fa);

    // --- Closed-loop ground truth: the chosen setting at the *realized*
    // alive count, analytically and (optionally) by Monte Carlo. ---
    if (closed_loop) {
      const std::optional<SystemParams> truth =
          alive >= 1 ? CandidateParamsAt(alive, decision.k, decision.window)
                     : std::nullopt;
      if (truth.has_value()) {
        std::vector<std::string> vlines;
        vlines.push_back(
            opt::PointRequestLine(*truth, spec_.options, next_id_++));
        if (spec_.sim_trials > 0) {
          const std::uint64_t vseed =
              seed_base.Substream(kValidateLabelBase +
                                  static_cast<std::uint64_t>(e))() &
              kSeedMask;
          vlines.push_back(SimulateRequestLine(
              *truth, spec_.sim_trials, vseed,
              spec_.failure.report_loss_prob, next_id_++));
        }
        std::vector<JsonValue> vresponses;
        if (!Solve(vlines, &vresponses)) {
          rows.Append(std::move(row));
          ++epochs_run;
          break;
        }
        const double analytic = opt::PointDetection(vresponses[0]);
        if (analytic >= 0.0) {
          row.Set("analytic_alive", analytic);
        } else {
          ++solve_errors_;
          if (metrics_) metrics_->solve_errors->Inc();
        }
        if (vresponses.size() > 1) {
          const JsonValue* result = vresponses[1].is_object()
                                        ? vresponses[1].Find("result")
                                        : nullptr;
          if (result != nullptr) {
            row.Set("simulated", *result);
          } else {
            ++solve_errors_;
            if (metrics_) metrics_->solve_errors->Inc();
          }
        }
      }
    }

    rows.Append(std::move(row));
    ++epochs_run;
    final_population = population;
    prev_survival = survival;
    if (metrics_) {
      metrics_->epochs->Inc();
      metrics_->current_k->Set(decision.k);
      metrics_->current_window->Set(decision.window);
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      metrics_->epoch_us->Record(us);
    }
  }

  JsonValue final_setting = JsonValue::Object();
  final_setting.Set("k", controller.k())
      .Set("window", controller.window())
      .Set("live", final_population);

  JsonValue result = JsonValue::Object();
  result.Set("mode", AdaptModeName(spec_.mode))
      .Set("degraded", gate_.degraded())
      .Set("held", held)
      .Set("epochs_run", epochs_run)
      .Set("horizon_epochs", spec_.horizon_epochs)
      .Set("retunes", retunes)
      .Set("solve_errors", solve_errors_)
      .Set("final", std::move(final_setting))
      .Set("epochs", std::move(rows));
  return result;
}

}  // namespace

AdaptMetrics::AdaptMetrics(obs::MetricsRegistry& registry)
    : runs(&registry.counter("adapt_runs_total")),
      epochs(&registry.counter("adapt_epochs_total")),
      retunes(&registry.counter("adapt_retunes_total")),
      candidates(&registry.counter("adapt_candidates_total")),
      solve_errors(&registry.counter("adapt_solve_errors_total")),
      infeasible_epochs(&registry.counter("adapt_infeasible_epochs_total")),
      deadline_partial(&registry.counter("adapt_deadline_partial_total")),
      active(&registry.gauge("adapt_active")),
      live_population(&registry.gauge("adapt_live_population")),
      estimated_population(&registry.gauge("adapt_estimated_population")),
      current_k(&registry.gauge("adapt_current_k")),
      current_window(&registry.gauge("adapt_current_window")),
      epoch_us(&registry.histogram("adapt_epoch_us", {},
                                   obs::DefaultLatencyBoundsUs())) {}

JsonValue AdaptRun(const AdaptSpec& spec, opt::SolveBackend& backend,
                   obs::MetricsRegistry* registry, const AdaptHooks& hooks) {
  Runner runner(spec, backend, registry, hooks);
  return runner.Run();
}

JsonValue HandleAdaptCommand(const JsonValue& command,
                             opt::SolveBackend& backend,
                             obs::MetricsRegistry* registry,
                             const AdaptHooks& hooks) {
  return opt::HandleLongCommand("adapt", command, [&](const JsonValue& spec) {
    return AdaptRun(ParseAdaptSpec(spec), backend, registry, hooks);
  });
}

}  // namespace sparsedet::adapt
