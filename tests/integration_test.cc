// End-to-end cross-validation: every analytical path (M-S, exact, k-node,
// single-period, false-alarm model) against the simulator and the online
// detector, over a parameter grid. These are the heaviest tests in the
// suite; trial counts are sized so each case stays well under a second.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/false_alarm_model.h"
#include "core/knode_model.h"
#include "core/ms_approach.h"
#include "core/s_approach.h"
#include "detect/window_detector.h"
#include "sim/monte_carlo.h"

namespace sparsedet {
namespace {

class EndToEnd : public ::testing::TestWithParam<
                     std::tuple<int, double, int, int>> {
 protected:
  SystemParams Params() const {
    const auto [nodes, speed, m, k] = GetParam();
    SystemParams p = SystemParams::OnrDefaults();
    p.num_nodes = nodes;
    p.target_speed = speed;
    p.window_periods = m;
    p.threshold_reports = k;
    return p;
  }
};

TEST_P(EndToEnd, AnalysisWithinSimulationInterval) {
  const SystemParams p = Params();
  const double analysis = MsApproachAnalyze(p).detection_probability;
  TrialConfig config;
  config.params = p;
  MonteCarloOptions mc;
  mc.trials = 4000;
  mc.z = 3.3;  // ~99.9% so the suite stays stable
  const ProportionEstimate sim = EstimateDetectionProbability(config, mc);
  EXPECT_GT(analysis, sim.lo - 0.015) << "analysis too low";
  EXPECT_LT(analysis, sim.hi + 0.015) << "analysis too high";
}

TEST_P(EndToEnd, OnlineDetectorAgreesWithCountRule) {
  // Feeding trial reports through the streaming WindowDetector (count-only)
  // must reproduce the trial-level count rule exactly, trial by trial.
  const SystemParams p = Params();
  TrialConfig config;
  config.params = p;
  const Rng base(31);
  WindowDetector::Options opt;
  opt.k = p.threshold_reports;
  opt.window = p.window_periods;
  for (int i = 0; i < 200; ++i) {
    Rng rng = base.Substream(i);
    const TrialResult trial = RunTrial(config, rng);
    EXPECT_EQ(DetectTrial(trial, opt),
              trial.total_true_reports >= p.threshold_reports)
        << "trial " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EndToEnd,
    ::testing::Values(std::make_tuple(60, 10.0, 20, 5),
                      std::make_tuple(240, 10.0, 20, 5),
                      std::make_tuple(140, 4.0, 20, 5),
                      std::make_tuple(140, 10.0, 12, 3),
                      std::make_tuple(100, 15.0, 25, 8)));

TEST(EndToEndExtras, KNodeAnalysisWithinSimulationInterval) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 180;
  p.target_speed = 10.0;
  for (int h : {2, 3}) {
    KNodeOptions opt;
    opt.h = h;
    const double analysis = KNodeAnalyze(p, opt).detection_probability;
    TrialConfig config;
    config.params = p;
    MonteCarloOptions mc;
    mc.trials = 4000;
    mc.z = 3.3;
    const ProportionEstimate sim =
        EstimateKNodeDetectionProbability(config, h, mc);
    EXPECT_GT(analysis, sim.lo - 0.015) << "h = " << h;
    EXPECT_LT(analysis, sim.hi + 0.015) << "h = " << h;
  }
}

TEST(EndToEndExtras, FalseAlarmsOnlyRaiseDetectionProbability) {
  // The Section-2 claim, verified end to end with paired seeds.
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 100;
  TrialConfig clean;
  clean.params = p;
  TrialConfig noisy = clean;
  noisy.false_alarm_prob = 2e-3;
  MonteCarloOptions mc;
  mc.trials = 3000;
  const int k = p.threshold_reports;
  const auto count_all = [k](const TrialResult& t) {
    return static_cast<int>(t.reports.size()) >= k;
  };
  const ProportionEstimate base =
      EstimateTrialProbability(clean, mc, count_all);
  const ProportionEstimate with_fa =
      EstimateTrialProbability(noisy, mc, count_all);
  EXPECT_GE(with_fa.successes, base.successes);
}

TEST(EndToEndExtras, CountOnlyFaModelMatchesDetectorOnNoTargetWindows) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 120;
  p.threshold_reports = 3;
  const double pf = 1e-3;
  const double analytic = CountOnlySystemFaProbability(p, pf);

  TrialConfig config;
  config.params = p;
  config.false_alarm_prob = pf;
  const Rng base(77);
  int hits = 0;
  const int trials = 4000;
  WindowDetector::Options opt;
  opt.k = p.threshold_reports;
  opt.window = p.window_periods;
  for (int i = 0; i < trials; ++i) {
    Rng rng = base.Substream(i);
    const TrialResult trial = RunNoTargetTrial(config, rng);
    if (DetectTrial(trial, opt)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, analytic, 0.03);
}

TEST(EndToEndExtras, ScenarioReportInternallyConsistent) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 240;
  p.target_speed = 10.0;
  const ScenarioReport report = AnalyzeScenario(p);
  EXPECT_NEAR(report.detection_probability,
              MsApproachAnalyze(p).detection_probability, 1e-12);
  EXPECT_NEAR(report.exact_detection_probability,
              SApproachExactDetectionProbability(p), 1e-12);
  MsApproachOptions raw;
  raw.normalize = false;
  EXPECT_EQ(report.unnormalized_detection_probability,
            MsApproachAnalyze(p, raw).detection_probability);
  EXPECT_LT(report.unnormalized_detection_probability,
            report.detection_probability);
  EXPECT_GT(report.instantaneous_detection, report.detection_probability);
  EXPECT_LT(report.single_period_detection, 0.05);
  EXPECT_GT(report.t_approach_states, report.ms_states);
  EXPECT_GT(report.s_approach_cost, report.ms_approach_cost);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("P[detect] (M-S"), std::string::npos);
  EXPECT_NE(summary.find("N=240"), std::string::npos);
}

TEST(EndToEndExtras, ScenarioReportMatchesSimulationHeadline) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 140;
  const ScenarioReport report = AnalyzeScenario(p);
  TrialConfig config;
  config.params = p;
  MonteCarloOptions mc;
  mc.trials = 5000;
  mc.z = 3.3;
  const ProportionEstimate sim = EstimateDetectionProbability(config, mc);
  EXPECT_GT(report.detection_probability, sim.lo - 0.01);
  EXPECT_LT(report.detection_probability, sim.hi + 0.01);
}

}  // namespace
}  // namespace sparsedet
