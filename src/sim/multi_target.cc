#include "sim/multi_target.h"

#include <numbers>

#include "common/check.h"
#include "geometry/field.h"
#include "geometry/segment.h"
#include "sim/deployment.h"

namespace sparsedet {
MultiTargetResult RunParallelTargetsTrial(const TrialConfig& config,
                                          int num_targets, double separation,
                                          Rng& rng) {
  config.params.Validate();
  SPARSEDET_REQUIRE(num_targets >= 1, "need at least one target");
  SPARSEDET_REQUIRE(separation >= 0.0, "separation must be >= 0");

  const Field field(config.params.field_width, config.params.field_height);
  const DiskSensing default_sensing(config.params.sensing_range,
                                    config.params.detect_prob);
  const SensingModel& sensing =
      config.sensing != nullptr ? *config.sensing : default_sensing;

  MultiTargetResult result;
  result.node_positions = DeployUniform(field, config.params.num_nodes, rng);
  result.per_target_reports.assign(num_targets, 0);

  // Parallel tracks: common heading, starts offset along the perpendicular.
  const Vec2 start = field.SamplePoint(rng);
  const double heading = rng.Uniform(0.0, 2.0 * std::numbers::pi);
  const Vec2 dir = Vec2::FromAngle(heading);
  const Vec2 normal{-dir.y, dir.x};
  const double step = config.params.StepLength();
  const int periods = config.params.window_periods;

  result.target_paths.resize(num_targets);
  for (int t = 0; t < num_targets; ++t) {
    Vec2 pos = start + normal * (separation * t);
    auto& path = result.target_paths[t];
    path.reserve(periods + 1);
    path.push_back(pos);
    for (int p = 0; p < periods; ++p) {
      pos += dir * step;
      path.push_back(pos);
    }
  }

  for (int period = 0; period < periods; ++period) {
    for (int node = 0; node < config.params.num_nodes; ++node) {
      bool sensed_any = false;
      for (int t = 0; t < num_targets; ++t) {
        const Segment seg(result.target_paths[t][period],
                          result.target_paths[t][period + 1]);
        const double p =
            GeometryAwareProbability(sensing, result.node_positions[node],
                                     seg, config.geometry, field);
        if (p > 0.0 && rng.Bernoulli(p)) {
          ++result.per_target_reports[t];
          sensed_any = true;
        }
      }
      if (sensed_any) {
        result.merged_reports.push_back({.period = period,
                                         .node = node,
                                         .node_pos =
                                             result.node_positions[node],
                                         .is_false_alarm = false});
      }
    }
    if (config.false_alarm_prob > 0.0) {
      for (int node = 0; node < config.params.num_nodes; ++node) {
        if (rng.Bernoulli(config.false_alarm_prob)) {
          result.merged_reports.push_back({.period = period,
                                           .node = node,
                                           .node_pos =
                                               result.node_positions[node],
                                           .is_false_alarm = true});
        }
      }
    }
  }
  return result;
}

}  // namespace sparsedet
