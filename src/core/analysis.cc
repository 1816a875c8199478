#include "core/analysis.h"

#include <sstream>

#include "common/table.h"
#include "core/s_approach.h"
#include "core/single_period.h"
#include "core/t_approach.h"

namespace sparsedet {

ScenarioReport AnalyzeScenario(const SystemParams& params,
                               const MsApproachOptions& options) {
  params.Validate();
  ScenarioReport report;
  report.params = params;
  report.ms = params.Ms();
  report.gh = options.gh;
  report.g = options.g;

  const MsApproachResult normalized = MsApproachAnalyze(params, options);
  report.detection_probability = normalized.detection_probability;
  report.predicted_accuracy = normalized.predicted_accuracy;
  report.ms_states = normalized.num_states;

  // The raw (un-normalized) answer is the same tail before Eq. 13's division.
  report.unnormalized_detection_probability =
      normalized.report_distribution.TailSum(params.threshold_reports);

  report.exact_detection_probability = SApproachExactDetectionProbability(
      params, -1, options.node_reliability);
  report.instantaneous_detection = SApproachExactDetectionProbability(
      params, 1, options.node_reliability);
  report.single_period_detection = SinglePeriodDetectionProbability(params);

  report.required_caps_99 = MsRequiredCapsFor(params, 0.99);
  report.t_approach_states = TApproachStateCount(params, options.g);
  const int required_g = SApproachRequiredCap(params, 0.99);
  report.s_approach_cost = SApproachCostModel(report.ms, required_g);
  report.ms_approach_cost = MsApproachCostModel(
      report.ms, report.required_caps_99.gh, report.required_caps_99.g,
      params.window_periods);
  return report;
}

std::string ScenarioReport::Summary() const {
  std::ostringstream os;
  os << "scenario: N=" << params.num_nodes << " Rs=" << params.sensing_range
     << "m V=" << params.target_speed << "m/s t=" << params.period_length
     << "s k=" << params.threshold_reports << " M=" << params.window_periods
     << " (ms=" << ms << ")\n";
  os << "  P[detect] (M-S, gh=" << gh << ", g=" << g
     << ")        : " << FormatDouble(detection_probability, 4) << "\n";
  os << "  P[detect] (exact spatial model)   : "
     << FormatDouble(exact_detection_probability, 4) << "\n";
  os << "  P[detect] (M-S, unnormalized)     : "
     << FormatDouble(unnormalized_detection_probability, 4)
     << "  [eta_MS = " << FormatDouble(predicted_accuracy, 4) << "]\n";
  os << "  P[detect] single period (Eq. 2)   : "
     << FormatDouble(single_period_detection, 4) << "\n";
  os << "  P[detect] instantaneous (k=1)     : "
     << FormatDouble(instantaneous_detection, 4) << "\n";
  os << "  caps for 99% accuracy             : gh="
     << required_caps_99.gh << " g=" << required_caps_99.g << "\n";
  os << "  Markov states (M-S vs T-approach) : " << ms_states << " vs "
     << FormatDouble(t_approach_states, 0) << "\n";
  os << "  cost model (S vs M-S, 99% target) : "
     << FormatDouble(s_approach_cost, 0) << " vs "
     << FormatDouble(ms_approach_cost, 0) << "\n";
  return os.str();
}

}  // namespace sparsedet
