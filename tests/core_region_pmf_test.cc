#include "core/region_pmf.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "prob/binomial.h"

namespace sparsedet {
namespace {

// A small synthetic region: subarea sizes for 1, 2, 3 covered periods.
const std::vector<double> kAreas{300.0, 200.0, 100.0};
constexpr double kFieldArea = 10000.0;
constexpr double kPd = 0.8;

TEST(ConditionalSensorReportPmf, WeightsAreaMixture) {
  const Pmf pmf = ConditionalSensorReportPmf(kAreas, kPd);
  // P[0 reports] = sum_i w_i (1-Pd)^i with w = {0.5, 1/3, 1/6}.
  const double expected0 = 0.5 * 0.2 + (200.0 / 600.0) * 0.04 +
                           (100.0 / 600.0) * 0.008;
  EXPECT_NEAR(pmf[0], expected0, 1e-12);
  EXPECT_NEAR(pmf.TotalMass(), 1.0, 1e-12);
  EXPECT_EQ(pmf.size(), 4u);  // up to 3 reports
}

TEST(ConditionalSensorReportPmf, PdOneAlwaysReportsEveryPeriod) {
  const Pmf pmf = ConditionalSensorReportPmf(kAreas, 1.0);
  EXPECT_NEAR(pmf[1], 0.5, 1e-12);
  EXPECT_NEAR(pmf[2], 200.0 / 600.0, 1e-12);
  EXPECT_NEAR(pmf[3], 100.0 / 600.0, 1e-12);
}

TEST(ConditionalSensorReportPmf, PdZeroNeverReports) {
  const Pmf pmf = ConditionalSensorReportPmf(kAreas, 0.0);
  EXPECT_DOUBLE_EQ(pmf[0], 1.0);
}

TEST(ExactRegionReportPmf, IsProperDistribution) {
  const Pmf pmf = ExactRegionReportPmf(50, kFieldArea, kAreas, kPd);
  EXPECT_NEAR(pmf.TotalMass(), 1.0, 1e-10);
  EXPECT_EQ(pmf.MaxValue(), 150);  // 50 sensors * up to 3 reports
}

TEST(ExactRegionReportPmf, ZeroNodesIsDeltaZero) {
  const Pmf pmf = ExactRegionReportPmf(0, kFieldArea, kAreas, kPd);
  EXPECT_DOUBLE_EQ(pmf[0], 1.0);
}

// The cut pmf (max_reports = k) keeps at most k + 1 bins, with P[X >= k]
// in the top one; the served exact tail is cut[k] / cut.TotalMass().
TEST(ExactRegionReportPmf, CutWithZeroNodesHasNoTail) {
  for (int k = 1; k <= 5; ++k) {
    const Pmf cut = ExactRegionReportPmf(0, kFieldArea, kAreas, kPd, 1.0, k);
    EXPECT_EQ(cut.size(), 1u) << "k = " << k;
    EXPECT_EQ(cut[k], 0.0) << "k = " << k;
    EXPECT_EQ(cut.TotalMass(), 1.0) << "k = " << k;
  }
}

TEST(ExactRegionReportPmf, CutAboveTheLargestCountHasNoTail) {
  // Four sensors report at most 4 * 3 = 12 times: a cut above that never
  // saturates, so it is the full pmf bit for bit.
  const Pmf full = ExactRegionReportPmf(4, kFieldArea, kAreas, kPd);
  for (int k : {13, 20}) {
    const Pmf cut = ExactRegionReportPmf(4, kFieldArea, kAreas, kPd, 1.0, k);
    EXPECT_EQ(cut.mass(), full.mass()) << "k = " << k;
    EXPECT_EQ(cut[k], 0.0) << "k = " << k;
  }
}

TEST(ExactRegionReportPmf, CutAtZeroIsOneBinAndTailOne) {
  const Pmf cut = ExactRegionReportPmf(500, kFieldArea, kAreas, kPd, 1.0, 0);
  EXPECT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0] / cut.TotalMass(), 1.0);
}

TEST(ExactRegionReportPmf, CutWithDeadNodesHasNoTail) {
  for (int k = 1; k <= 4; ++k) {
    const Pmf cut = ExactRegionReportPmf(80, kFieldArea, kAreas, kPd, 0.0, k);
    EXPECT_EQ(cut[k], 0.0) << "k = " << k;
    EXPECT_GT(cut.TotalMass(), 0.0) << "k = " << k;
  }
}

TEST(ExactRegionReportPmf, CutAtReliabilityOneMatchesTheDefaultFullPmf) {
  const int n = 300;
  const Pmf full = ExactRegionReportPmf(n, kFieldArea, kAreas, kPd);
  for (int k = 1; k <= 8; ++k) {
    const Pmf cut = ExactRegionReportPmf(n, kFieldArea, kAreas, kPd, 1.0, k);
    ASSERT_EQ(cut.size(), static_cast<std::size_t>(k) + 1) << "k = " << k;
    const double expected = full.TailSum(k) / full.TotalMass();
    EXPECT_NEAR(cut[k] / cut.TotalMass(), expected, 1e-13 * expected)
        << "k = " << k;
    for (int m = 0; m < k; ++m) {
      EXPECT_NEAR(cut[m], full[m], 1e-13 * full[m]) << "k = " << k
                                                    << " m = " << m;
    }
  }
}

TEST(ExactRegionReportPmf, MeanMatchesClosedForm) {
  // E[reports] = N * sum_i (area_i / S) * i * Pd.
  const int n = 80;
  const Pmf pmf = ExactRegionReportPmf(n, kFieldArea, kAreas, kPd);
  const double expected =
      n * kPd * (300.0 * 1 + 200.0 * 2 + 100.0 * 3) / kFieldArea;
  EXPECT_NEAR(pmf.Mean(), expected, 1e-9);
}

TEST(ExactRegionReportPmf, SingleSubareaMatchesTwoStageBinomial) {
  // One subarea covering 1 period: total reports ~ Binomial(N, (a/S)*Pd).
  const std::vector<double> areas{500.0};
  const int n = 40;
  const Pmf pmf = ExactRegionReportPmf(n, kFieldArea, areas, kPd);
  const double p = (500.0 / kFieldArea) * kPd;
  for (int k = 0; k <= 10; ++k) {
    EXPECT_NEAR(pmf[k], BinomialPmf(n, k, p), 1e-12) << "k = " << k;
  }
}

TEST(CappedRegionReportPmf, MassEqualsAccuracyFormula) {
  // Total retained mass == P[#sensors in region <= cap] (Eqs. 5/7/9).
  for (int cap : {0, 1, 2, 3, 5}) {
    const Pmf pmf = CappedRegionReportPmf(60, kFieldArea, kAreas, kPd, cap);
    const double expected = RegionCapAccuracy(60, kFieldArea, 600.0, cap);
    EXPECT_NEAR(pmf.TotalMass(), expected, 1e-12) << "cap = " << cap;
  }
}

TEST(CappedRegionReportPmf, ConvergesToExactAsCapGrows) {
  const Pmf exact = ExactRegionReportPmf(30, kFieldArea, kAreas, kPd);
  const Pmf capped = CappedRegionReportPmf(30, kFieldArea, kAreas, kPd, 30);
  for (int k = 0; k <= exact.MaxValue(); ++k) {
    EXPECT_NEAR(capped[k], exact[k], 1e-10) << "k = " << k;
  }
}

TEST(CappedRegionReportPmf, CapZeroKeepsOnlyEmptyRegionMass) {
  const Pmf pmf = CappedRegionReportPmf(60, kFieldArea, kAreas, kPd, 0);
  // Only the no-sensor configuration contributes: (1 - A/S)^N at zero.
  EXPECT_NEAR(pmf[0], BinomialPmf(60, 0, 600.0 / kFieldArea), 1e-12);
  EXPECT_NEAR(pmf.TailSum(1), 0.0, 1e-15);
}

TEST(CappedRegionReportPmfLiteral, MatchesConvolutionFormExactly) {
  // The paper's Algorithm-1 ordered-tuple enumeration and the mixture
  // convolution are algebraically identical; verify numerically.
  for (int cap : {0, 1, 2, 3}) {
    const Pmf fast = CappedRegionReportPmf(25, kFieldArea, kAreas, kPd, cap);
    const Pmf literal =
        CappedRegionReportPmfLiteral(25, kFieldArea, kAreas, kPd, cap);
    ASSERT_EQ(fast.size(), literal.size()) << "cap = " << cap;
    for (std::size_t k = 0; k < fast.size(); ++k) {
      EXPECT_NEAR(fast[k], literal[k], 1e-13)
          << "cap = " << cap << " k = " << k;
    }
  }
}

TEST(RegionCapAccuracy, IsBinomialCdf) {
  EXPECT_NEAR(RegionCapAccuracy(100, kFieldArea, 600.0, 2),
              BinomialCdf(100, 2, 0.06), 1e-15);
  EXPECT_DOUBLE_EQ(RegionCapAccuracy(100, kFieldArea, 600.0, 100), 1.0);
}

TEST(RequiredRegionCap, FindsSmallestSufficientCap) {
  const double accuracy = 0.99;
  const int cap = RequiredRegionCap(100, kFieldArea, 600.0, accuracy);
  EXPECT_GE(RegionCapAccuracy(100, kFieldArea, 600.0, cap), accuracy);
  if (cap > 0) {
    EXPECT_LT(RegionCapAccuracy(100, kFieldArea, 600.0, cap - 1), accuracy);
  }
}

TEST(RequiredRegionCap, GrowsWithNodeCountAndRegionSize) {
  const int small = RequiredRegionCap(50, kFieldArea, 600.0, 0.999);
  const int large_n = RequiredRegionCap(500, kFieldArea, 600.0, 0.999);
  const int large_area = RequiredRegionCap(50, kFieldArea, 4000.0, 0.999);
  EXPECT_GE(large_n, small);
  EXPECT_GE(large_area, small);
}

// The scan RequiredRegionCap replaced: one BinomialCdf per cap.
int ScanRequiredRegionCap(int num_nodes, double field_area,
                          double region_area, double accuracy) {
  for (int cap = 0; cap < num_nodes; ++cap) {
    if (RegionCapAccuracy(num_nodes, field_area, region_area, cap) >=
        accuracy) {
      return cap;
    }
  }
  return num_nodes;
}

TEST(RequiredRegionCap, MatchesThePerCapScanExactly) {
  Rng rng(20260418);
  for (int trial = 0; trial < 160; ++trial) {
    // Node counts spread log-uniformly over 1..5000 plus the edges; a third
    // of the regions cover more than half the field, so the scan crosses
    // N/2 into BinomialCdf's upper-tail branch.
    int n = static_cast<int>(std::exp(rng.Uniform(0.0, std::log(5001.0))));
    if (trial < 4) n = std::vector<int>{0, 1, 2, 5000}[trial];
    const double fraction = trial % 3 == 0 ? rng.Uniform(0.5, 1.0)
                                           : std::exp(rng.Uniform(-9.0, 0.0));
    const double region = fraction * kFieldArea;
    double accuracy = rng.Uniform(0.5, 1.0);
    if (trial % 7 == 0) accuracy = 1.0;
    if (trial % 7 == 1) accuracy = 1.0 - 1e-12;
    EXPECT_EQ(RequiredRegionCap(n, kFieldArea, region, accuracy),
              ScanRequiredRegionCap(n, kFieldArea, region, accuracy))
        << "N = " << n << " fraction = " << fraction
        << " accuracy = " << accuracy;
  }
  // Large N above N/2, where the scan skips caps by its running lower sum.
  // The reference scan is quadratic here (~0.5 s a case), so only three.
  const struct {
    double fraction;
    double accuracy;
  } kLargeCases[] = {{0.6, 0.99}, {0.8, 0.999}, {0.95, 1.0}};
  for (const auto& c : kLargeCases) {
    const double region = c.fraction * kFieldArea;
    EXPECT_EQ(RequiredRegionCap(10000, kFieldArea, region, c.accuracy),
              ScanRequiredRegionCap(10000, kFieldArea, region, c.accuracy))
        << "fraction = " << c.fraction << " accuracy = " << c.accuracy;
  }
}

TEST(RequiredRegionCap, ValidatesLikeThePerCapScan) {
  // No node: the scan never ran, so the area is not checked.
  EXPECT_EQ(RequiredRegionCap(0, kFieldArea, 2.0 * kFieldArea, 0.9), 0);
  EXPECT_THROW(RequiredRegionCap(10, kFieldArea, 2.0 * kFieldArea, 0.9),
               InvalidArgument);
  EXPECT_THROW(RequiredRegionCap(10, kFieldArea, 0.0, 0.9), InvalidArgument);
  // Inside the area check's 1e-9 slack, but p > 1 for the binomial.
  EXPECT_THROW(RequiredRegionCap(10, kFieldArea, kFieldArea * (1.0 + 1e-10),
                                 0.9),
               InvalidArgument);
  EXPECT_THROW(RequiredRegionCap(10, kFieldArea, 600.0, 0.0),
               InvalidArgument);
  EXPECT_THROW(RequiredRegionCap(10, kFieldArea, 600.0, 1.5),
               InvalidArgument);
}

TEST(ConditionalSensorJointPmf, NodeFlagTracksPositiveReports) {
  const JointPmf joint = ConditionalSensorJointPmf(kAreas, kPd, 5, 2);
  // No mass at (0, 1) or (m >= 1, 0).
  EXPECT_DOUBLE_EQ(joint.At(0, 1), 0.0);
  for (int m = 1; m <= 3; ++m) EXPECT_DOUBLE_EQ(joint.At(m, 0), 0.0);
  // Marginal over the node flag matches the scalar conditional pmf.
  const Pmf marginal = joint.MarginalM();
  const Pmf scalar = ConditionalSensorReportPmf(kAreas, kPd);
  for (int m = 0; m <= 3; ++m) {
    EXPECT_NEAR(marginal[m], scalar[m], 1e-14) << "m = " << m;
  }
}

TEST(CappedRegionJointPmf, ReportMarginalMatchesScalarCappedPmf) {
  const int cap = 3;
  const JointPmf joint =
      CappedRegionJointPmf(40, kFieldArea, kAreas, kPd, cap, 9, 2);
  const Pmf scalar = CappedRegionReportPmf(40, kFieldArea, kAreas, kPd, cap);
  const Pmf marginal = joint.MarginalM();
  for (int m = 0; m <= 9; ++m) {
    EXPECT_NEAR(marginal[m], scalar[m], 1e-13) << "m = " << m;
  }
}

TEST(CappedRegionJointPmf, NodeAxisSaturatesAtCap) {
  const JointPmf joint =
      CappedRegionJointPmf(40, kFieldArea, kAreas, 1.0, 3, 9, 2);
  // With Pd = 1 every in-region sensor reports, so 3 sensors -> n pinned
  // at the cap 2; mass must exist there.
  EXPECT_GT(joint.JointTail(3, 2), 0.0);
  EXPECT_NEAR(joint.TotalMass(),
              RegionCapAccuracy(40, kFieldArea, 600.0, 3), 1e-12);
}

TEST(RegionPmf, RejectsInvalidInputs) {
  EXPECT_THROW(ConditionalSensorReportPmf({}, kPd), InvalidArgument);
  EXPECT_THROW(ConditionalSensorReportPmf({0.0, 0.0}, kPd), InvalidArgument);
  EXPECT_THROW(ConditionalSensorReportPmf(kAreas, 1.5), InvalidArgument);
  EXPECT_THROW(ExactRegionReportPmf(-1, kFieldArea, kAreas, kPd),
               InvalidArgument);
  EXPECT_THROW(ExactRegionReportPmf(10, 100.0, kAreas, kPd),
               InvalidArgument);  // region larger than field
  EXPECT_THROW(CappedRegionReportPmf(10, kFieldArea, kAreas, kPd, -1),
               InvalidArgument);
  EXPECT_THROW(CappedRegionJointPmf(10, kFieldArea, kAreas, kPd, 3, 2, 2),
               InvalidArgument);  // max_m too small
}

}  // namespace
}  // namespace sparsedet
