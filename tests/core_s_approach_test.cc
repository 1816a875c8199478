#include "core/s_approach.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/ms_approach.h"
#include "core/region_pmf.h"

namespace sparsedet {
namespace {

SystemParams Onr(int nodes, double speed) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.target_speed = speed;
  return p;
}

TEST(SApproach, ExactDistributionIsProper) {
  const Pmf exact = SApproachExactDistribution(Onr(140, 10.0));
  EXPECT_NEAR(exact.TotalMass(), 1.0, 1e-9);
}

TEST(SApproach, CappedMassEqualsEq5Accuracy) {
  const SystemParams p = Onr(140, 10.0);
  for (int cap : {1, 3, 5}) {
    SApproachOptions opt;
    opt.cap = cap;
    const SApproachResult r = SApproachAnalyze(p, opt);
    EXPECT_NEAR(r.total_mass, r.predicted_accuracy, 1e-12) << "G = " << cap;
    EXPECT_NEAR(r.predicted_accuracy,
                RegionCapAccuracy(p.num_nodes, p.FieldArea(), p.ARegionArea(),
                                  cap),
                1e-15);
  }
}

TEST(SApproach, ConvergesToExactAsGGrows) {
  const SystemParams p = Onr(140, 10.0);
  const double exact = SApproachExactDetectionProbability(p);
  double prev_err = 1.0;
  for (int cap : {2, 4, 6, 10}) {
    SApproachOptions opt;
    opt.cap = cap;
    const double err =
        std::abs(SApproachAnalyze(p, opt).detection_probability - exact);
    EXPECT_LE(err, prev_err + 1e-9) << "G = " << cap;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(SApproach, LiteralEnumerationMatchesConvolutionForm) {
  // Feasible only for small G — which is exactly the paper's point.
  SystemParams p = Onr(60, 10.0);
  for (int cap : {0, 1, 2}) {
    SApproachOptions fast;
    fast.cap = cap;
    SApproachOptions literal;
    literal.cap = cap;
    literal.literal_enumeration = true;
    const Pmf a = SApproachAnalyze(p, fast).report_distribution;
    const Pmf b = SApproachAnalyze(p, literal).report_distribution;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-12) << "G = " << cap << " m = " << i;
    }
  }
}

TEST(SApproach, RequiredCapLargerThanMsCaps) {
  // The Figure 8 relationship: G >> gh >= g because the ARegion dwarfs any
  // single NEDR.
  const SystemParams p = Onr(240, 10.0);
  const int g_cap = SApproachRequiredCap(p, 0.99);
  const MsRequiredCaps ms_caps = MsRequiredCapsFor(p, 0.99);
  EXPECT_GT(g_cap, ms_caps.gh);
  EXPECT_GE(ms_caps.gh, ms_caps.g);
}

TEST(SApproach, RequiredCapIsMinimal) {
  const SystemParams p = Onr(140, 10.0);
  const int cap = SApproachRequiredCap(p, 0.99);
  EXPECT_GE(RegionCapAccuracy(p.num_nodes, p.FieldArea(), p.ARegionArea(),
                              cap),
            0.99);
  EXPECT_LT(RegionCapAccuracy(p.num_nodes, p.FieldArea(), p.ARegionArea(),
                              cap - 1),
            0.99);
}

TEST(SApproach, NormalizedBeatsUnnormalizedAtSmallG) {
  const SystemParams p = Onr(240, 10.0);
  const double exact = SApproachExactDetectionProbability(p);
  SApproachOptions raw;
  raw.cap = 4;
  raw.normalize = false;
  SApproachOptions norm;
  norm.cap = 4;
  EXPECT_LT(std::abs(SApproachAnalyze(p, norm).detection_probability - exact),
            std::abs(SApproachAnalyze(p, raw).detection_probability - exact));
}

TEST(SApproach, ExactAgreesWithMsExactStageProduct) {
  // Deep consistency: the exact S-approach distribution and the M-S stage
  // decomposition with uncapped stages describe the same model... up to the
  // M-S independence approximation across NEDRs, which is exact for the
  // *mean*: E[total] must match exactly.
  const SystemParams p = Onr(140, 10.0);
  const Pmf exact = SApproachExactDistribution(p);
  MsApproachOptions opt;
  opt.gh = p.num_nodes;  // uncapped
  opt.g = p.num_nodes;
  const MsApproachResult ms = MsApproachAnalyze(p, opt);
  EXPECT_NEAR(exact.Mean(), ms.report_distribution.Mean(), 1e-6);
}

TEST(SApproach, InstantaneousProbabilityViaK1) {
  // From N = 2400 on, the N-th power of a per-sensor pmf summing to 1 + eps
  // lifts the full pmf's tails above 1; the served tails stay in [0, 1].
  for (int nodes : {140, 2400, 20000, 100000}) {
    const SystemParams p = Onr(nodes, 10.0);
    const double k1 = SApproachExactDetectionProbability(p, 1);
    const double k5 = SApproachExactDetectionProbability(p, 5);
    EXPECT_GE(k1, k5) << "N = " << nodes;
    EXPECT_LE(k1, 1.0) << "N = " << nodes;
    EXPECT_LE(k5, 1.0) << "N = " << nodes;
    EXPECT_GE(k5, 0.0) << "N = " << nodes;
  }
  const SystemParams p = Onr(140, 10.0);
  EXPECT_GT(SApproachExactDetectionProbability(p, 1),
            SApproachExactDetectionProbability(p, 5));
  EXPECT_EQ(SApproachExactDetectionProbability(p, 0), 1.0);
  EXPECT_EQ(SApproachExactDetectionProbability(p, 5, 1.0),
            SApproachExactDetectionProbability(p, 5));
}

TEST(SApproach, CostModelMatchesPaperExample) {
  // "if ms is 10 and G is 6 ... the order of 10^12".
  EXPECT_NEAR(SApproachCostModel(10, 6), 1e12, 1e6);
  EXPECT_THROW(SApproachCostModel(0, 3), InvalidArgument);
}

TEST(SApproach, RequiresGeneralCaseWindow) {
  SystemParams p = Onr(140, 10.0);
  p.window_periods = p.Ms();
  EXPECT_THROW(SApproachAnalyze(p), InvalidArgument);
  EXPECT_THROW(SApproachExactDistribution(p), InvalidArgument);
}

}  // namespace
}  // namespace sparsedet
