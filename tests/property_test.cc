// Property-style tests over randomized instances (seed-parameterized):
// algebraic laws of the probability machinery, geometric invariants of the
// decomposition, and routing invariants on random deployments. Each TEST_P
// runs the property on a distinct random instance.
#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ms_approach.h"
#include "core/region_pmf.h"
#include "core/s_approach.h"
#include "geometry/field.h"
#include "geometry/region_decomposition.h"
#include "net/routing.h"
#include "net/topology.h"
#include "prob/pmf.h"
#include "sim/deployment.h"

namespace sparsedet {
namespace {

Pmf RandomPmf(Rng& rng, int max_support) {
  const int size = 1 + static_cast<int>(rng.UniformInt(max_support));
  std::vector<double> mass(size + 1);
  for (double& m : mass) m = rng.UniformDouble();
  double total = 0.0;
  for (double m : mass) total += m;
  for (double& m : mass) m /= total;
  return Pmf(mass);
}

class PmfLaws : public ::testing::TestWithParam<int> {};

TEST_P(PmfLaws, ConvolutionMassIsMultiplicative) {
  Rng rng(GetParam());
  const Pmf a = RandomPmf(rng, 6);
  const Pmf b = RandomPmf(rng, 6);
  EXPECT_NEAR(a.ConvolveWith(b).TotalMass(), a.TotalMass() * b.TotalMass(),
              1e-12);
}

TEST_P(PmfLaws, ConvolutionMeanIsAdditive) {
  Rng rng(GetParam() + 1000);
  const Pmf a = RandomPmf(rng, 6);
  const Pmf b = RandomPmf(rng, 6);
  EXPECT_NEAR(a.ConvolveWith(b).Mean(), a.Mean() + b.Mean(), 1e-10);
}

TEST_P(PmfLaws, ConvolutionVarianceIsAdditive) {
  Rng rng(GetParam() + 2000);
  const Pmf a = RandomPmf(rng, 6);
  const Pmf b = RandomPmf(rng, 6);
  EXPECT_NEAR(a.ConvolveWith(b).Variance(), a.Variance() + b.Variance(),
              1e-10);
}

TEST_P(PmfLaws, ConvolutionIsAssociative) {
  Rng rng(GetParam() + 3000);
  const Pmf a = RandomPmf(rng, 4);
  const Pmf b = RandomPmf(rng, 4);
  const Pmf c = RandomPmf(rng, 4);
  const Pmf left = a.ConvolveWith(b).ConvolveWith(c);
  const Pmf right = a.ConvolveWith(b.ConvolveWith(c));
  ASSERT_EQ(left.size(), right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_NEAR(left[i], right[i], 1e-13);
  }
}

TEST_P(PmfLaws, ThinningCommutesWithConvolution) {
  // (a thinned) * (b thinned) == thinning applied per-factor; also
  // mass is preserved by thinning.
  Rng rng(GetParam() + 4000);
  const Pmf a = RandomPmf(rng, 5);
  const double q = rng.UniformDouble();
  EXPECT_NEAR(a.ThinnedBy(q).TotalMass(), a.TotalMass(), 1e-12);
  EXPECT_NEAR(a.ThinnedBy(q).Mean(), q * a.Mean(), 1e-12);
}

TEST_P(PmfLaws, SaturatedConvolutionPreservesMassAndTails) {
  Rng rng(GetParam() + 5000);
  const Pmf a = RandomPmf(rng, 5);
  const Pmf b = RandomPmf(rng, 5);
  const int cap = 4;
  const Pmf full = a.ConvolveWith(b);
  const Pmf sat = a.ConvolveWith(b, cap, /*saturate=*/true);
  EXPECT_NEAR(sat.TotalMass(), full.TotalMass(), 1e-12);
  for (int k = 0; k <= cap; ++k) {
    EXPECT_NEAR(sat.TailSum(k), full.TailSum(k), 1e-12) << "k = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmfLaws, ::testing::Range(1, 11));

class DecompositionLaws : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionLaws, RandomParametersKeepConservation) {
  Rng rng(GetParam() * 7919);
  const double rs = rng.Uniform(1.0, 5000.0);
  const double v = rng.Uniform(0.1, 50.0);
  const double t = rng.Uniform(1.0, 600.0);
  const RegionDecomposition d(rs, v, t);
  double sum_h = 0.0;
  double sum_b = 0.0;
  for (int i = 1; i <= d.ms() + 1; ++i) {
    sum_h += d.AreaH(i);
    sum_b += d.AreaB(i);
    EXPECT_GE(d.AreaH(i), -1e-9);
    EXPECT_GE(d.AreaB(i), -1e-9);
  }
  EXPECT_NEAR(sum_h, d.DrArea(), d.DrArea() * 1e-9);
  EXPECT_NEAR(sum_b, d.BodyNedrArea(), d.DrArea() * 1e-9);
}

TEST_P(DecompositionLaws, CappedMassNeverExceedsOneOrExact) {
  Rng rng(GetParam() * 104729);
  const double rs = rng.Uniform(100.0, 2000.0);
  const double v = rng.Uniform(1.0, 20.0);
  const RegionDecomposition d(rs, v, 60.0);
  const double field = 32000.0 * 32000.0;
  const int n = 50 + static_cast<int>(rng.UniformInt(300));
  const double pd = rng.UniformDouble();
  const Pmf exact = ExactRegionReportPmf(n, field, d.area_h(), pd);
  const Pmf capped = CappedRegionReportPmf(n, field, d.area_h(), pd, 3);
  EXPECT_LE(capped.TotalMass(), 1.0 + 1e-12);
  EXPECT_NEAR(exact.TotalMass(), 1.0, 1e-9);
  // Capped mass never exceeds exact mass at any point value.
  for (std::size_t m = 0; m < capped.size(); ++m) {
    EXPECT_LE(capped[m], exact[m] + 1e-9) << "m = " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionLaws, ::testing::Range(1, 9));

class RoutingLaws : public ::testing::TestWithParam<int> {};

TEST_P(RoutingLaws, BfsIsNeverLongerThanGreedy) {
  Rng rng(GetParam() * 31337);
  const Field field = Field::Square(32000.0);
  std::vector<Vec2> nodes = DeployUniform(field, 100, rng);
  nodes.push_back(field.Center());
  const Topology topology(std::move(nodes), 6000.0);
  const int base = topology.num_nodes() - 1;
  for (int node = 0; node < base; node += 7) {
    const RouteResult greedy = GreedyForward(topology, node, base);
    const RouteResult bfs = ShortestPath(topology, node, base);
    if (greedy.delivered) {
      ASSERT_TRUE(bfs.delivered);
      EXPECT_LE(bfs.hops, greedy.hops) << "node " << node;
    }
    // Greedy strictly reduces distance-to-goal along its path.
    const Vec2 goal = topology.positions()[base];
    for (std::size_t i = 1; i < greedy.path.size(); ++i) {
      EXPECT_LT(topology.positions()[greedy.path[i]].DistanceTo(goal),
                topology.positions()[greedy.path[i - 1]].DistanceTo(goal));
    }
  }
}

TEST_P(RoutingLaws, HopCountsSatisfyTriangleInequality) {
  Rng rng(GetParam() * 65537);
  const Field field = Field::Square(20000.0);
  const Topology topology(DeployUniform(field, 60, rng), 6000.0);
  const std::vector<int> from0 = topology.HopCountsFrom(0);
  const std::vector<int> from1 = topology.HopCountsFrom(1);
  if (from0[1] < 0) return;  // disconnected instance: nothing to check
  for (int v = 0; v < topology.num_nodes(); ++v) {
    if (from0[v] < 0 || from1[v] < 0) continue;
    EXPECT_LE(std::abs(from0[v] - from1[v]), from0[1]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingLaws, ::testing::Range(1, 9));

class ModelLaws : public ::testing::TestWithParam<int> {};

TEST_P(ModelLaws, DetectionProbabilityWithinUnitIntervalAndMonotoneInK) {
  Rng rng(GetParam() * 2654435761u);
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 50 + static_cast<int>(rng.UniformInt(400));
  p.target_speed = rng.Uniform(2.0, 30.0);
  p.detect_prob = rng.UniformDouble();
  if (p.window_periods <= p.Ms()) p.window_periods = p.Ms() + 5;
  double prev = 1.1;
  for (int k = 1; k <= 8; ++k) {
    p.threshold_reports = k;
    const double prob = MsApproachAnalyze(p).detection_probability;
    EXPECT_GE(prob, -1e-12);
    EXPECT_LE(prob, 1.0 + 1e-12);
    EXPECT_LE(prob, prev + 1e-9) << "k = " << k;
    prev = prob;
  }
}

TEST_P(ModelLaws, DetectionProbabilityMonotoneInNodes) {
  Rng rng(GetParam() * 40503u);
  SystemParams p = SystemParams::OnrDefaults();
  p.target_speed = rng.Uniform(2.0, 30.0);
  p.detect_prob = 0.3 + 0.7 * rng.UniformDouble();
  if (p.window_periods <= p.Ms()) p.window_periods = p.Ms() + 5;
  double prev = -1.0;
  for (int n = 40; n <= 400; n += 60) {
    p.num_nodes = n;
    const double prob = MsApproachAnalyze(p).detection_probability;
    EXPECT_GE(prob, prev - 1e-9) << "N = " << n;
    prev = prob;
  }
}

TEST_P(ModelLaws, DetectionProbabilityMonotoneInDetectProb) {
  Rng rng(GetParam() * 69497u);
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 50 + static_cast<int>(rng.UniformInt(300));
  p.target_speed = rng.Uniform(2.0, 30.0);
  if (p.window_periods <= p.Ms()) p.window_periods = p.Ms() + 5;
  double prev = -1.0;
  for (double pd = 0.1; pd <= 1.0 + 1e-9; pd += 0.15) {
    p.detect_prob = std::min(pd, 1.0);
    const double prob = MsApproachAnalyze(p).detection_probability;
    EXPECT_GE(prob, prev - 1e-9) << "Pd = " << pd;
    prev = prob;
  }
}

TEST_P(ModelLaws, DetectionProbabilityMonotoneInWindowPeriods) {
  // A longer observation window can only add detection opportunities.
  Rng rng(GetParam() * 93911u);
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = 50 + static_cast<int>(rng.UniformInt(300));
  p.target_speed = rng.Uniform(2.0, 20.0);
  p.detect_prob = 0.3 + 0.7 * rng.UniformDouble();
  double prev = -1.0;
  for (int m = p.Ms() + 2; m <= p.Ms() + 26; m += 6) {
    p.window_periods = m;
    const double prob = MsApproachAnalyze(p).detection_probability;
    EXPECT_GE(prob, prev - 1e-9) << "M = " << m;
    prev = prob;
  }
}

TEST_P(ModelLaws, ExactRegionPmfMassIsOneTo1e12) {
  // Every pmf produced by the (memoized, parallelized) exact convolution
  // path is a true probability distribution to near machine precision.
  Rng rng(GetParam() * 48271u);
  const RegionDecomposition d(rng.Uniform(200.0, 2000.0),
                              rng.Uniform(1.0, 20.0), 60.0);
  const double field = 32000.0 * 32000.0;
  const int n = 20 + static_cast<int>(rng.UniformInt(300));
  const double pd = rng.UniformDouble();
  const double reliability = 0.5 + 0.5 * rng.UniformDouble();
  EXPECT_NEAR(ExactRegionReportPmf(n, field, d.area_h(), pd).TotalMass(), 1.0,
              1e-12);
  EXPECT_NEAR(
      ExactRegionReportPmf(n, field, d.area_h(), pd, reliability).TotalMass(),
      1.0, 1e-12);
}

TEST_P(ModelLaws, ExactTailMatchesTheFullPmfAndStaysInUnitInterval) {
  // The served exact tail reads P[X >= k] from the power cut at k + 1
  // bins; the full N * r + 1 bin pmf is the reference it must match.
  Rng rng(GetParam() * 15485863u);
  for (int i = 0; i < 20; ++i) {
    SystemParams p = SystemParams::OnrDefaults();
    p.num_nodes = 1 + static_cast<int>(rng.UniformInt(3000));
    p.detect_prob = rng.Uniform(0.05, 1.0);
    const int k = 1 + static_cast<int>(rng.UniformInt(12));
    const double reliability = rng.Uniform(0.3, 1.0);
    const double tail = SApproachExactDetectionProbability(p, k, reliability);
    const Pmf full = SApproachExactDistribution(p, reliability);
    const double raw = full.TailSum(k);
    const double normalized = raw / full.TotalMass();
    const std::string where = "N = " + std::to_string(p.num_nodes) +
                              " k = " + std::to_string(k);
    EXPECT_GE(tail, 0.0) << where;
    EXPECT_LE(tail, 1.0) << where;
    EXPECT_NEAR(tail, normalized, 1e-13 * normalized) << where;
    if (raw <= 1.0) {
      EXPECT_NEAR(tail, raw, 1e-12) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelLaws, ::testing::Range(1, 13));

}  // namespace
}  // namespace sparsedet
