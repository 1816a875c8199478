// Golden-table regression suite for the EXPERIMENTS.md headline tables:
//   E1 (Figure 8)  — required caps g / gh / G vs N, pinned exactly;
//   E2 (Figure 9a) — analysis vs 10 000-trial simulation across the ONR
//                    grid, analysis pinned to 1e-3 and simulation to its
//                    Monte-Carlo band (the sim is seed-deterministic, so
//                    the documented point values reproduce exactly up to
//                    table rounding);
//   E3 (Figure 9b) — unnormalized truncation error growing with N and
//                    tracked by 1 - eta_MS.
// These tables are what the paper reproduction claims; the solver
// parallelization + memo cache must never shift them. Simulation points
// reuse one cached run per scenario so the suite stays fast.
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "core/ms_approach.h"
#include "core/s_approach.h"
#include "sim/monte_carlo.h"

namespace sparsedet {
namespace {

SystemParams Onr(int nodes, double speed) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.target_speed = speed;
  return p;
}

// One 10 000-trial run per (nodes, speed), shared across the E2 and E3
// tests (E3's error curve is measured against the same simulation).
const ProportionEstimate& SimPoint(int nodes, double speed) {
  static std::map<std::pair<int, double>, ProportionEstimate> cache;
  const auto key = std::make_pair(nodes, speed);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  TrialConfig config;
  config.params = Onr(nodes, speed);
  return cache.emplace(key, EstimateDetectionProbability(config))
      .first->second;
}

// ---- E1: required caps for 99% per-window accuracy (Figure 8). ----

struct E1Row {
  int nodes;
  int g;   // M-S body/tail cap
  int gh;  // M-S head cap
  int G;   // S-approach cap
};

class GoldenE1 : public ::testing::TestWithParam<E1Row> {};

TEST_P(GoldenE1, RequiredCapsMatchTable) {
  const E1Row row = GetParam();
  const SystemParams p = Onr(row.nodes, 10.0);
  const MsRequiredCaps caps = MsRequiredCapsFor(p, 0.99);
  EXPECT_EQ(caps.g, row.g) << "N = " << row.nodes;
  EXPECT_EQ(caps.gh, row.gh) << "N = " << row.nodes;
  EXPECT_EQ(SApproachRequiredCap(p, 0.99), row.G) << "N = " << row.nodes;
}

INSTANTIATE_TEST_SUITE_P(Figure8, GoldenE1,
                         ::testing::Values(E1Row{60, 2, 3, 5},
                                           E1Row{120, 2, 4, 8},
                                           E1Row{180, 3, 5, 10},
                                           E1Row{240, 3, 6, 13},
                                           E1Row{260, 3, 6, 14}));

// ---- E2: analysis vs simulation on the ONR grid (Figure 9a). ----

struct E2Row {
  int nodes;
  // gtest names each case after the raw bytes of its parameter. Left as
  // padding, these four bytes were indeterminate and the case names changed
  // from build to build; as a field they are fixed, and their values keep
  // the names the cases were first listed under.
  std::uint32_t name_tag;
  double speed;
  double analysis;  // normalized M-S analysis, table value (3 decimals)
  double sim;       // 10 000-trial default-seed simulation, table value
};
static_assert(sizeof(E2Row) == 8 + 3 * sizeof(double),
              "every byte of an E2Row is set, so case names are stable");

class GoldenE2 : public ::testing::TestWithParam<E2Row> {};

TEST_P(GoldenE2, AnalysisMatchesTableTo1e3) {
  const E2Row row = GetParam();
  const MsApproachResult r = MsApproachAnalyze(Onr(row.nodes, row.speed));
  EXPECT_NEAR(r.detection_probability, row.analysis, 1e-3)
      << "N = " << row.nodes << ", v = " << row.speed;
}

TEST_P(GoldenE2, SimulationMatchesTableWithinMonteCarloBand) {
  // One 10 000-trial run serves all the sim-side assertions for this row
  // (ctest runs every case in its own process, so the per-scenario cache
  // cannot amortize across TESTs — keep them together).
  const E2Row row = GetParam();
  const ProportionEstimate sim = SimPoint(row.nodes, row.speed);
  ASSERT_EQ(sim.trials, 10000);
  // The run is seed-deterministic, so it reproduces the documented point
  // to table rounding; the Wilson band guards the documented value too.
  EXPECT_NEAR(sim.point, row.sim, 1e-3)
      << "N = " << row.nodes << ", v = " << row.speed;
  EXPECT_GE(row.sim, sim.lo - 1e-3);
  EXPECT_LE(row.sim, sim.hi + 1e-3);

  // Figure 9(a)'s claim: analysis and simulation agree. The largest gap on
  // the grid is ~0.016 (N = 120, v = 10), so 0.02 pins the agreement
  // without flaking on the Monte-Carlo band edges.
  const MsApproachResult r = MsApproachAnalyze(Onr(row.nodes, row.speed));
  EXPECT_NEAR(r.detection_probability, sim.point, 0.02)
      << "N = " << row.nodes << ", v = " << row.speed;
}

INSTANTIATE_TEST_SUITE_P(
    Figure9a, GoldenE2,
    ::testing::Values(E2Row{60, 0x5590, 4.0, 0.373, 0.379},
                      E2Row{120, 0x5590, 4.0, 0.622, 0.629},
                      E2Row{180, 0, 4.0, 0.778, 0.774},
                      E2Row{240, 0, 4.0, 0.872, 0.873},
                      E2Row{60, 0x5590, 10.0, 0.427, 0.429},
                      E2Row{120, 0x5590, 10.0, 0.781, 0.797},
                      E2Row{180, 0x5590, 10.0, 0.928, 0.928},
                      E2Row{240, 0x5590, 10.0, 0.978, 0.980}));

// ---- E3: unnormalized truncation error (Figure 9b), v = 10. ----

TEST(GoldenE3, TruncationErrorGrowsWithNAndTracksEta) {
  // The deterministic core of Figure 9(b): disabling Eq. 13 drops the
  // truncated mass, so the raw analysis sits below the normalized one by
  // a gap that grows with N and is predicted by Eq. 14's eta_MS. (The
  // sim-measured error curve adds Monte-Carlo noise on top; its endpoint
  // anchors are pinned in SaturationPointValues and EndpointErrors.)
  MsApproachOptions raw;
  raw.normalize = false;

  double prev_gap = -1.0;
  for (const int nodes : {60, 120, 180, 240}) {
    const SystemParams p = Onr(nodes, 10.0);
    const MsApproachResult normalized = MsApproachAnalyze(p);
    const MsApproachResult r = MsApproachAnalyze(p, raw);
    const double gap = normalized.detection_probability - r.detection_probability;

    EXPECT_GE(gap, -1e-12) << "raw must under-estimate, N = " << nodes;
    EXPECT_GE(gap, prev_gap - 1e-9) << "N = " << nodes;
    prev_gap = gap;

    // Eq. 14 tracks the truncation: the dropped tail mass 1 - eta_MS
    // bounds/approximates the gap (exact at full saturation).
    EXPECT_NEAR(gap, 1.0 - r.predicted_accuracy, 5e-3) << "N = " << nodes;
  }
}

TEST(GoldenE3, EndpointErrors) {
  // Sim-vs-raw error at the ends of the documented curve: ~0.2% at N = 60
  // (truncation negligible) rising to ~2.45% at N = 240 (pinned tighter in
  // SaturationPointValues).
  MsApproachOptions raw;
  raw.normalize = false;
  const MsApproachResult low = MsApproachAnalyze(Onr(60, 10.0), raw);
  const double low_error = SimPoint(60, 10.0).point - low.detection_probability;
  EXPECT_NEAR(low_error, 0.002, 0.01);
  const MsApproachResult high = MsApproachAnalyze(Onr(240, 10.0), raw);
  const double high_error =
      SimPoint(240, 10.0).point - high.detection_probability;
  EXPECT_GT(high_error, low_error);
}

TEST(GoldenE3, SaturationPointValues) {
  // The N = 240, v = 10 anchor of Figure 9(b): raw (unnormalized) value,
  // predicted accuracy eta_MS, and the documented ~2.45% gap to sim.
  MsApproachOptions raw;
  raw.normalize = false;
  const MsApproachResult r = MsApproachAnalyze(Onr(240, 10.0), raw);
  EXPECT_NEAR(r.detection_probability, 0.955, 1e-3);
  EXPECT_NEAR(r.predicted_accuracy, 0.9764, 1e-3);
  const double error = SimPoint(240, 10.0).point - r.detection_probability;
  EXPECT_NEAR(error, 0.0245, 4e-3);
}

}  // namespace
}  // namespace sparsedet
