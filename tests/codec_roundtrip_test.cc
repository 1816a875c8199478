// Seeded round-trip properties of the shared JSON codecs: every writer
// (ParamsToJson, OptionsToJson, both SpecToJson) must read back through its
// parser to the exact input, bit for bit, over randomized values. This is
// what lets the CLI build a spec from flags and re-parse it, and lets
// optimize and adapt phrase inner requests as JSON, without drifting.
#include <bit>
#include <cstdint>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "adapt/spec.h"
#include "common/json.h"
#include "engine/request.h"
#include "opt/spec.h"

namespace sparsedet {
namespace {

constexpr int kCases = 200;

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}
  double Real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::int64_t Int64(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }
  bool Coin() { return Int(0, 1) == 1; }

 private:
  std::mt19937_64 rng_;
};

// A valid scenario (SystemParams::Validate passes) with full-mantissa
// doubles, so the codec's number formatting is exercised, not just
// integers.
SystemParams RandomParams(Gen& g) {
  SystemParams p;
  p.field_width = g.Real(1e4, 1e5);
  p.field_height = g.Real(1e4, 1e5);
  p.num_nodes = g.Int(10, 400);  // >= the largest k, so k <= N * M
  p.sensing_range = g.Real(100.0, 1500.0);
  p.comm_range = 2.0 * p.sensing_range + g.Real(1.0, 5000.0);
  p.detect_prob = g.Real(0.0, 1.0);
  p.period_length = g.Real(1.0, 120.0);
  p.target_speed = g.Real(0.5, 30.0);
  p.window_periods = g.Int(1, 40);
  p.threshold_reports = g.Int(1, 10);
  return p;
}

MsApproachOptions RandomOptions(Gen& g) {
  MsApproachOptions o;
  o.gh = g.Int(1, 8);
  o.g = g.Int(1, 8);
  o.normalize = g.Coin();
  o.node_reliability = g.Real(0.0, 1.0);
  return o;
}

// An axis the spec parsers accept: integral from/step on integer axes,
// from >= 1 (or > 0), at most 10 values.
opt::AxisSpec RandomAxis(Gen& g, bool integer, double max_to) {
  opt::AxisSpec axis;
  if (!g.Coin()) return axis;
  axis.set = true;
  if (integer) {
    axis.from = g.Int(1, 50);
    axis.step = g.Int(1, 5);
    axis.to = axis.from + axis.step * g.Int(0, 9);
  } else {
    axis.from = g.Real(0.01, max_to / 2.0);
    axis.to = g.Real(axis.from, max_to);
    axis.step = g.Real((axis.to - axis.from) / 9.0 + 1e-6, max_to);
  }
  return axis;
}

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void ExpectSameParams(const SystemParams& a, const SystemParams& b) {
  EXPECT_EQ(Bits(a.field_width), Bits(b.field_width));
  EXPECT_EQ(Bits(a.field_height), Bits(b.field_height));
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(Bits(a.sensing_range), Bits(b.sensing_range));
  EXPECT_EQ(Bits(a.comm_range), Bits(b.comm_range));
  EXPECT_EQ(Bits(a.detect_prob), Bits(b.detect_prob));
  EXPECT_EQ(Bits(a.period_length), Bits(b.period_length));
  EXPECT_EQ(Bits(a.target_speed), Bits(b.target_speed));
  EXPECT_EQ(a.window_periods, b.window_periods);
  EXPECT_EQ(a.threshold_reports, b.threshold_reports);
}

void ExpectSameOptions(const MsApproachOptions& a,
                       const MsApproachOptions& b) {
  EXPECT_EQ(a.gh, b.gh);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.normalize, b.normalize);
  EXPECT_EQ(Bits(a.node_reliability), Bits(b.node_reliability));
}

void ExpectSameAxis(const opt::AxisSpec& a, const opt::AxisSpec& b) {
  EXPECT_EQ(a.set, b.set);
  if (!a.set) return;
  EXPECT_EQ(Bits(a.from), Bits(b.from));
  EXPECT_EQ(Bits(a.to), Bits(b.to));
  EXPECT_EQ(Bits(a.step), Bits(b.step));
}

TEST(CodecRoundTrip, ParamsAndOptionsReadBackBitForBit) {
  Gen g(20080617);
  for (int i = 0; i < kCases; ++i) {
    const SystemParams p = RandomParams(g);
    const MsApproachOptions o = RandomOptions(g);
    // Through text, the way the codecs are used.
    ExpectSameParams(engine::ParseParamsSection(
                         ParseJson(engine::ParamsToJson(p).ToString())),
                     p);
    ExpectSameOptions(engine::ParseOptionsSection(
                          ParseJson(engine::OptionsToJson(o).ToString())),
                      o);
  }
}

TEST(CodecRoundTrip, OptimizeSpecReadsBackBitForBit) {
  Gen g(7);
  for (int i = 0; i < kCases; ++i) {
    opt::OptimizeSpec s;
    s.objective = static_cast<opt::Objective>(g.Int(0, 2));
    s.mode = g.Coin() ? opt::SearchMode::kFrontier : opt::SearchMode::kOptimize;
    s.min_detection = g.Real(0.0, 1.0);
    s.pf = g.Real(0.0, 1.0);
    s.max_fa = g.Real(0.0, 1.0);
    s.min_lifetime_days = g.Real(0.0, 1000.0);
    s.nodes = RandomAxis(g, true, 0.0);
    s.k = RandomAxis(g, true, 0.0);
    s.window = RandomAxis(g, true, 0.0);
    s.period = RandomAxis(g, false, 120.0);
    s.duty = RandomAxis(g, false, 1.0);
    s.params = RandomParams(g);
    s.options = RandomOptions(g);
    s.energy.battery_joules = g.Real(1e3, 1e6);
    s.energy.sense_cost_per_period = g.Real(0.0, 1.0);
    s.energy.idle_cost_per_period = g.Real(0.0, 1.0);
    s.energy.tx_cost_per_report_hop = g.Real(0.0, 1.0);
    s.energy.rx_cost_per_report_hop = g.Real(0.0, 1.0);
    s.mean_hops = g.Real(0.0, 10.0);
    s.refine_rounds = g.Int(0, 16);
    s.deadline_ms = g.Int64(0, 9'000'000'000'000'000);

    const opt::OptimizeSpec r =
        opt::ParseOptimizeSpec(ParseJson(opt::SpecToJson(s).ToString()));
    EXPECT_EQ(r.objective, s.objective);
    EXPECT_EQ(r.mode, s.mode);
    EXPECT_EQ(Bits(r.min_detection), Bits(s.min_detection));
    EXPECT_EQ(Bits(r.pf), Bits(s.pf));
    EXPECT_EQ(Bits(r.max_fa), Bits(s.max_fa));
    EXPECT_EQ(Bits(r.min_lifetime_days), Bits(s.min_lifetime_days));
    ExpectSameAxis(r.nodes, s.nodes);
    ExpectSameAxis(r.k, s.k);
    ExpectSameAxis(r.window, s.window);
    ExpectSameAxis(r.period, s.period);
    ExpectSameAxis(r.duty, s.duty);
    ExpectSameParams(r.params, s.params);
    ExpectSameOptions(r.options, s.options);
    EXPECT_EQ(Bits(r.energy.battery_joules), Bits(s.energy.battery_joules));
    EXPECT_EQ(Bits(r.energy.sense_cost_per_period),
              Bits(s.energy.sense_cost_per_period));
    EXPECT_EQ(Bits(r.energy.idle_cost_per_period),
              Bits(s.energy.idle_cost_per_period));
    EXPECT_EQ(Bits(r.energy.tx_cost_per_report_hop),
              Bits(s.energy.tx_cost_per_report_hop));
    EXPECT_EQ(Bits(r.energy.rx_cost_per_report_hop),
              Bits(s.energy.rx_cost_per_report_hop));
    EXPECT_EQ(Bits(r.mean_hops), Bits(s.mean_hops));
    EXPECT_EQ(r.refine_rounds, s.refine_rounds);
    EXPECT_EQ(r.deadline_ms, s.deadline_ms);
  }
}

TEST(CodecRoundTrip, AdaptSpecReadsBackBitForBit) {
  Gen g(11);
  for (int i = 0; i < kCases; ++i) {
    adapt::AdaptSpec s;
    s.mode = g.Coin() ? adapt::AdaptMode::kClosedLoop
                      : adapt::AdaptMode::kAnalyze;
    s.params = RandomParams(g);
    s.options = RandomOptions(g);
    s.failure.kind =
        g.Coin() ? FailureKind::kWeibull : FailureKind::kExponential;
    s.failure.mean_lifetime_s = g.Real(0.0, 1e6);
    s.failure.weibull_shape = g.Real(0.1, 5.0);
    s.failure.report_loss_prob = g.Real(0.0, 0.99);
    s.horizon_epochs = g.Int(1, adapt::kMaxHorizonEpochs);
    s.epoch_periods = g.Int(0, 100000);
    s.min_detection = g.Real(0.0, 1.0);
    s.pf = g.Real(1e-9, 1.0);
    s.max_fa = g.Real(0.0, 1.0);
    s.k = RandomAxis(g, true, 0.0);
    s.window = RandomAxis(g, true, 0.0);
    s.margin = g.Real(0.0, 1.0);
    s.min_dwell_epochs = g.Int(0, 1000);
    s.estimate_from_reports = g.Coin();
    s.estimator_windows = g.Int(1, 64);
    s.estimator_z = g.Real(0.01, 10.0);
    s.sim_seed = static_cast<std::uint64_t>(g.Int64(0, 9'000'000'000'000'000));
    s.sim_trials = g.Int(0, 1000000);
    s.deadline_ms = g.Int64(0, 9'000'000'000'000'000);

    const adapt::AdaptSpec r =
        adapt::ParseAdaptSpec(ParseJson(adapt::SpecToJson(s).ToString()));
    EXPECT_EQ(r.mode, s.mode);
    ExpectSameParams(r.params, s.params);
    ExpectSameOptions(r.options, s.options);
    EXPECT_EQ(r.failure.kind, s.failure.kind);
    EXPECT_EQ(Bits(r.failure.mean_lifetime_s), Bits(s.failure.mean_lifetime_s));
    EXPECT_EQ(Bits(r.failure.weibull_shape), Bits(s.failure.weibull_shape));
    EXPECT_EQ(Bits(r.failure.report_loss_prob),
              Bits(s.failure.report_loss_prob));
    EXPECT_EQ(r.horizon_epochs, s.horizon_epochs);
    EXPECT_EQ(r.epoch_periods, s.epoch_periods);
    EXPECT_EQ(Bits(r.min_detection), Bits(s.min_detection));
    EXPECT_EQ(Bits(r.pf), Bits(s.pf));
    EXPECT_EQ(Bits(r.max_fa), Bits(s.max_fa));
    ExpectSameAxis(r.k, s.k);
    ExpectSameAxis(r.window, s.window);
    EXPECT_EQ(Bits(r.margin), Bits(s.margin));
    EXPECT_EQ(r.min_dwell_epochs, s.min_dwell_epochs);
    EXPECT_EQ(r.estimate_from_reports, s.estimate_from_reports);
    EXPECT_EQ(r.estimator_windows, s.estimator_windows);
    EXPECT_EQ(Bits(r.estimator_z), Bits(s.estimator_z));
    EXPECT_EQ(r.sim_seed, s.sim_seed);
    EXPECT_EQ(r.sim_trials, s.sim_trials);
    EXPECT_EQ(r.deadline_ms, s.deadline_ms);
  }
}

}  // namespace
}  // namespace sparsedet
