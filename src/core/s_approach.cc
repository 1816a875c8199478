#include "core/s_approach.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "core/region_pmf.h"
#include "geometry/region_decomposition.h"
#include "obs/timer.h"
#include "prob/memo_cache.h"

namespace sparsedet {
namespace {

// The subarea decomposition depends on four scalars only and repeats for
// every sweep point that varies N, Pd, or k, so it is memoized
// process-wide. The report-pmf calls downstream have their own memos.
std::vector<double> SRegions(const SystemParams& params) {
  obs::ObsTimer timer(obs::Phase::kRegionDecomposition);
  params.Validate();
  prob::MemoKey key("core/s_regions");
  key.AddDouble(params.sensing_range)
      .AddDouble(params.target_speed)
      .AddDouble(params.period_length)
      .AddInt(params.window_periods);
  return *prob::MemoCache::Global().GetOrCompute<std::vector<double>>(
      key,
      [&] {
        const RegionDecomposition decomp(
            params.sensing_range, params.target_speed, params.period_length);
        SPARSEDET_REQUIRE(params.window_periods > decomp.ms(),
                          "the S-approach requires M > ms");
        return decomp.SApproachRegions(params.window_periods);
      },
      [](const std::vector<double>& v) { return v.size() * sizeof(double); });
}

}  // namespace

SApproachResult SApproachAnalyze(const SystemParams& params,
                                 const SApproachOptions& options) {
  SPARSEDET_REQUIRE(options.cap >= 0, "cap must be >= 0");
  const std::vector<double> regions = SRegions(params);

  SApproachResult result;
  result.ms = params.Ms();
  {
    obs::ObsTimer timer(obs::Phase::kSEnumeration);
    result.report_distribution =
        options.literal_enumeration
            ? CappedRegionReportPmfLiteral(params.num_nodes,
                                           params.FieldArea(), regions,
                                           params.detect_prob, options.cap)
            : CappedRegionReportPmf(params.num_nodes, params.FieldArea(),
                                    regions, params.detect_prob, options.cap,
                                    options.node_reliability);
  }
  result.total_mass = result.report_distribution.TotalMass();
  result.predicted_accuracy = RegionCapAccuracy(
      params.num_nodes, params.FieldArea(), params.ARegionArea(), options.cap);

  const double tail =
      result.report_distribution.TailSum(params.threshold_reports);
  result.detection_probability =
      options.normalize && result.total_mass > 0.0 ? tail / result.total_mass
                                                   : tail;
  return result;
}

Pmf SApproachExactDistribution(const SystemParams& params,
                               double node_reliability) {
  const std::vector<double> regions = SRegions(params);
  obs::ObsTimer timer(obs::Phase::kSEnumeration);
  return ExactRegionReportPmf(params.num_nodes, params.FieldArea(), regions,
                              params.detect_prob, node_reliability);
}

double SApproachExactDetectionProbability(const SystemParams& params, int k,
                                          double node_reliability) {
  if (k < 0) k = params.threshold_reports;
  const std::vector<double> regions = SRegions(params);
  obs::ObsTimer timer(obs::Phase::kSEnumeration);
  const Pmf cut =
      ExactRegionReportPmf(params.num_nodes, params.FieldArea(), regions,
                           params.detect_prob, node_reliability,
                           /*max_reports=*/k);
  // The per-sensor pmf sums to 1 + eps, and every bin of its N-th power
  // carries (1 + eps)^N; dividing by the cut pmf's own total cancels that
  // factor, and a non-negative bin over a sum containing it is <= 1.
  return cut[static_cast<std::size_t>(k)] / cut.TotalMass();
}

int SApproachRequiredCap(const SystemParams& params, double accuracy) {
  params.Validate();
  return RequiredRegionCap(params.num_nodes, params.FieldArea(),
                           params.ARegionArea(), accuracy);
}

double SApproachCostModel(int ms, int cap) {
  SPARSEDET_REQUIRE(ms >= 1 && cap >= 0, "ms must be >= 1 and cap >= 0");
  return std::pow(static_cast<double>(ms), 2.0 * cap);
}

}  // namespace sparsedet
