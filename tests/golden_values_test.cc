// Golden regression values: the headline analytic numbers of the
// reproduction, pinned to 4 decimals. These are pure deterministic
// computations (no Monte-Carlo), so any drift signals a real behavioural
// change in the model code — the figures in EXPERIMENTS.md quote exactly
// these values.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/gated_fa_bound.h"
#include "core/ms_approach.h"
#include "core/s_approach.h"
#include "core/single_period.h"

namespace sparsedet {
namespace {

SystemParams Onr(int nodes, double speed) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.target_speed = speed;
  return p;
}

struct GoldenPoint {
  int nodes;
  // gtest names each case after the raw bytes of its parameter. Left as
  // padding, these four bytes were indeterminate and the case names changed
  // from build to build; as a field they are fixed, and their values keep
  // the names the cases were first listed under.
  std::uint32_t name_tag;
  double speed;
  double detection;      // normalized M-S, gh = g = 3
  double eta;            // Eq. 14 predicted accuracy
  double exact;          // uncapped spatial model
};
static_assert(sizeof(GoldenPoint) == 8 + 4 * sizeof(double),
              "every byte of a GoldenPoint is set, so case names are stable");

class Golden : public ::testing::TestWithParam<GoldenPoint> {};

TEST_P(Golden, Figure9aAnalysisValues) {
  const GoldenPoint g = GetParam();
  const SystemParams p = Onr(g.nodes, g.speed);
  const MsApproachResult r = MsApproachAnalyze(p);
  EXPECT_NEAR(r.detection_probability, g.detection, 5e-5);
  EXPECT_NEAR(r.predicted_accuracy, g.eta, 5e-5);
  EXPECT_NEAR(SApproachExactDetectionProbability(p), g.exact, 5e-5);
}

INSTANTIATE_TEST_SUITE_P(
    OnrGrid, Golden,
    ::testing::Values(GoldenPoint{60, 0, 4.0, 0.3730, 0.9999, 0.3741},
                      GoldenPoint{120, 0, 4.0, 0.6222, 0.9991, 0.6240},
                      GoldenPoint{180, 0, 4.0, 0.7783, 0.9959, 0.7806},
                      GoldenPoint{240, 0x696F506E, 4.0, 0.8721, 0.9890, 0.8747},
                      GoldenPoint{60, 0x002C3B03, 10.0, 0.4267, 0.9999, 0.4284},
                      GoldenPoint{120, 0, 10.0, 0.7814, 0.9979, 0.7852},
                      GoldenPoint{180, 0xCAD00000, 10.0, 0.9282, 0.9912, 0.9310},
                      GoldenPoint{240, 0, 10.0, 0.9781, 0.9764, 0.9796}));

TEST(GoldenScalars, Figure8RequiredCapsAtN240) {
  const SystemParams p = Onr(240, 10.0);
  const MsRequiredCaps caps = MsRequiredCapsFor(p, 0.99);
  EXPECT_EQ(caps.gh, 6);
  EXPECT_EQ(caps.g, 3);
  EXPECT_EQ(SApproachRequiredCap(p, 0.99), 13);
}

TEST(GoldenScalars, SinglePeriodAtN240) {
  const SystemParams p = Onr(240, 10.0);
  EXPECT_NEAR(SinglePeriodPIndi(p), 0.9 * p.DrArea() / p.FieldArea(), 1e-12);
  EXPECT_NEAR(SinglePeriodDetectionProbability(p, 1), 0.6005, 5e-5);
}

TEST(GoldenScalars, GuaranteedThresholdsAtN140) {
  const SystemParams p = Onr(140, 10.0);
  EXPECT_EQ(GuaranteedGatedThreshold(p, 1e-3, 0.01), 4);
  EXPECT_EQ(GuaranteedGatedThreshold(p, 5e-3, 0.001), 7);
}

TEST(GoldenScalars, UnnormalizedValueAtSaturationPoint) {
  MsApproachOptions raw;
  raw.normalize = false;
  const MsApproachResult r = MsApproachAnalyze(Onr(240, 10.0), raw);
  EXPECT_NEAR(r.detection_probability, 0.9550, 5e-5);
}

}  // namespace
}  // namespace sparsedet
