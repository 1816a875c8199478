#include "sim/trial.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "geometry/field.h"
#include "geometry/segment.h"
#include "sim/deployment.h"

namespace sparsedet {
namespace {

Field MakeField(const SystemParams& params) {
  return Field(params.field_width, params.field_height);
}

std::vector<bool> DrawAliveFlags(const TrialConfig& config, Rng& rng) {
  std::vector<bool> alive(static_cast<std::size_t>(config.params.num_nodes),
                          true);
  if (config.node_reliability < 1.0) {
    for (std::size_t i = 0; i < alive.size(); ++i) {
      alive[i] = rng.Bernoulli(config.node_reliability);
    }
  }
  return alive;
}

// Per-period death process. Returns {} when disabled so that no randomness
// is drawn and existing seeds keep reproducing the published trajectories.
// A node already dead from the reliability draw gets death period 0
// (again without consuming randomness).
std::vector<int> DrawDeathPeriods(const TrialConfig& config,
                                  const std::vector<bool>& alive, Rng& rng) {
  if (config.node_death_prob <= 0.0) return {};
  const int m = config.params.window_periods;
  std::vector<int> death(alive.size(), m);
  for (std::size_t node = 0; node < alive.size(); ++node) {
    if (!alive[node]) {
      death[node] = 0;
      continue;
    }
    for (int period = 0; period < m; ++period) {
      if (rng.Bernoulli(config.node_death_prob)) {
        death[node] = period;
        break;
      }
    }
  }
  return death;
}

// Alive for the whole of `period`: functional up front and not yet dead.
bool AliveAt(const TrialResult& result, int node, int period) {
  if (!result.node_alive[node]) return false;
  return result.death_period.empty() || period < result.death_period[node];
}

void AddFalseAlarms(const TrialConfig& config,
                    const std::vector<Vec2>& nodes, Rng& rng,
                    TrialResult& result) {
  // A sleeping node's sensing hardware cannot false-alarm either.
  const double pf = config.false_alarm_prob * config.duty_cycle;
  if (pf <= 0.0) return;
  for (int period = 0; period < config.params.window_periods; ++period) {
    for (int node = 0; node < static_cast<int>(nodes.size()); ++node) {
      if (AliveAt(result, node, period) && rng.Bernoulli(pf)) {
        result.reports.push_back({.period = period,
                                  .node = node,
                                  .node_pos = nodes[node],
                                  .is_false_alarm = true});
      }
    }
  }
}

// Drops each report independently with report_loss_prob and recomputes the
// true-report tallies from the survivors. No-op (and no randomness) when
// the loss process is off.
void ApplyReportLoss(const TrialConfig& config, Rng& rng,
                     TrialResult& result) {
  if (config.report_loss_prob <= 0.0) return;
  std::vector<SimReport> kept;
  kept.reserve(result.reports.size());
  for (const SimReport& report : result.reports) {
    if (rng.Bernoulli(config.report_loss_prob)) {
      ++result.lost_reports;
    } else {
      kept.push_back(report);
    }
  }
  result.reports = std::move(kept);
  std::fill(result.true_reports_per_period.begin(),
            result.true_reports_per_period.end(), 0);
  result.total_true_reports = 0;
  std::unordered_set<int> reporting_nodes;
  for (const SimReport& report : result.reports) {
    if (report.is_false_alarm) continue;
    ++result.true_reports_per_period[report.period];
    ++result.total_true_reports;
    reporting_nodes.insert(report.node);
  }
  result.distinct_true_nodes = static_cast<int>(reporting_nodes.size());
}

void CheckResilienceProbs(const TrialConfig& config) {
  SPARSEDET_REQUIRE(
      config.node_death_prob >= 0.0 && config.node_death_prob <= 1.0,
      "node death probability must be in [0, 1]");
  SPARSEDET_REQUIRE(
      config.report_loss_prob >= 0.0 && config.report_loss_prob <= 1.0,
      "report loss probability must be in [0, 1]");
}

// Keeps result.reports ordered by period (stable within a period).
void SortReports(TrialResult& result) {
  std::stable_sort(result.reports.begin(), result.reports.end(),
                   [](const SimReport& a, const SimReport& b) {
                     return a.period < b.period;
                   });
}

}  // namespace

double GeometryAwareProbability(const SensingModel& sensing, Vec2 sensor,
                                const Segment& segment,
                                SensingGeometry geometry, const Field& field) {
  if (geometry == SensingGeometry::kPlanar) {
    return sensing.DetectionProbability(sensor, segment);
  }
  const double w = field.width();
  const double h = field.height();
  SPARSEDET_DCHECK(segment.Length() < std::min(w, h),
                   "toroidal sensing requires per-period steps shorter "
                   "than the field");
  const double ox = std::floor(segment.a.x / w) * w;
  const double oy = std::floor(segment.a.y / h) * h;
  const Segment local({segment.a.x - ox, segment.a.y - oy},
                      {segment.b.x - ox, segment.b.y - oy});
  double best = 0.0;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      const Vec2 image{sensor.x + dx * w, sensor.y + dy * h};
      best = std::max(best, sensing.DetectionProbability(image, local));
      if (best >= 1.0) return best;
    }
  }
  return best;
}

TrialResult RunTrial(const TrialConfig& config, Rng& rng) {
  config.params.Validate();
  SPARSEDET_REQUIRE(
      config.false_alarm_prob >= 0.0 && config.false_alarm_prob <= 1.0,
      "false alarm probability must be in [0, 1]");
  SPARSEDET_REQUIRE(
      config.node_reliability >= 0.0 && config.node_reliability <= 1.0,
      "node reliability must be in [0, 1]");
  SPARSEDET_REQUIRE(config.duty_cycle >= 0.0 && config.duty_cycle <= 1.0,
                    "duty cycle must be in [0, 1]");
  CheckResilienceProbs(config);

  const Field field = MakeField(config.params);
  const StraightLineMotion default_motion;
  const DiskSensing default_sensing(config.params.sensing_range,
                                    config.params.detect_prob);
  const MotionModel& motion =
      config.motion != nullptr ? *config.motion : default_motion;
  const SensingModel& sensing =
      config.sensing != nullptr ? *config.sensing : default_sensing;

  TrialResult result;
  result.node_positions = DeployUniform(field, config.params.num_nodes, rng);
  result.node_alive = DrawAliveFlags(config, rng);
  result.death_period = DrawDeathPeriods(config, result.node_alive, rng);
  result.target_path =
      motion.SamplePath(field, config.params.window_periods,
                        config.params.StepLength(), rng);
  result.true_reports_per_period.assign(config.params.window_periods, 0);

  std::unordered_set<int> reporting_nodes;
  for (int period = 0; period < config.params.window_periods; ++period) {
    const Segment path_segment(result.target_path[period],
                               result.target_path[period + 1]);
    for (int node = 0; node < config.params.num_nodes; ++node) {
      if (!AliveAt(result, node, period)) continue;
      // An asleep node cannot sense: detection requires awake AND detect,
      // i.e. Bernoulli(duty * p).
      const double p = config.duty_cycle *
                       GeometryAwareProbability(sensing,
                                                result.node_positions[node],
                                                path_segment, config.geometry,
                                                field);
      if (p > 0.0 && rng.Bernoulli(p)) {
        result.reports.push_back({.period = period,
                                  .node = node,
                                  .node_pos = result.node_positions[node],
                                  .is_false_alarm = false});
        ++result.true_reports_per_period[period];
        ++result.total_true_reports;
        reporting_nodes.insert(node);
      }
    }
  }
  result.distinct_true_nodes = static_cast<int>(reporting_nodes.size());

  AddFalseAlarms(config, result.node_positions, rng, result);
  ApplyReportLoss(config, rng, result);
  SortReports(result);
  return result;
}

TrialResult RunNoTargetTrial(const TrialConfig& config, Rng& rng) {
  config.params.Validate();
  SPARSEDET_REQUIRE(
      config.false_alarm_prob >= 0.0 && config.false_alarm_prob <= 1.0,
      "false alarm probability must be in [0, 1]");
  SPARSEDET_REQUIRE(
      config.node_reliability >= 0.0 && config.node_reliability <= 1.0,
      "node reliability must be in [0, 1]");
  SPARSEDET_REQUIRE(config.duty_cycle >= 0.0 && config.duty_cycle <= 1.0,
                    "duty cycle must be in [0, 1]");
  CheckResilienceProbs(config);

  const Field field = MakeField(config.params);
  TrialResult result;
  result.node_positions = DeployUniform(field, config.params.num_nodes, rng);
  result.node_alive = DrawAliveFlags(config, rng);
  result.death_period = DrawDeathPeriods(config, result.node_alive, rng);
  result.true_reports_per_period.assign(config.params.window_periods, 0);
  AddFalseAlarms(config, result.node_positions, rng, result);
  ApplyReportLoss(config, rng, result);
  SortReports(result);
  return result;
}

}  // namespace sparsedet
