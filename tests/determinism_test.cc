// Determinism contract for the parallelized solver hot path: results are
// BYTE-identical — compared via IEEE-754 bit patterns, not EXPECT_NEAR —
// across any --solver-threads setting, and identical again whether served
// cold (computed) or warm (memo-cache hit). Also pins the cancellation
// rule: a deadline-bearing solve never populates the memo cache.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/ms_approach.h"
#include "core/region_pmf.h"
#include "core/s_approach.h"
#include "geometry/region_decomposition.h"
#include "prob/memo_cache.h"
#include "prob/pmf.h"
#include "resilience/cancel.h"
#include "sim/monte_carlo.h"

namespace sparsedet {
namespace {

// Bitwise fingerprints: two values fingerprint equal iff they are
// bit-identical (NaN-safe, -0.0 vs 0.0 distinguishing — stricter than ==).
void AppendBits(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

void AppendBits(std::string& out, const Pmf& pmf) {
  for (std::size_t i = 0; i < pmf.size(); ++i) AppendBits(out, pmf[i]);
  out.push_back('|');
}

std::string Fingerprint(const MsApproachResult& r) {
  std::string out;
  AppendBits(out, r.report_distribution);
  AppendBits(out, r.total_mass);
  AppendBits(out, r.detection_probability);
  AppendBits(out, r.predicted_accuracy);
  out += std::to_string(r.ms) + "," + std::to_string(r.z) + "," +
         std::to_string(r.num_states) + ";";
  AppendBits(out, r.head_pmf);
  AppendBits(out, r.body_pmf);
  for (const Pmf& t : r.tail_pmfs) AppendBits(out, t);
  return out;
}

SystemParams Onr(int nodes, double speed) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.target_speed = speed;
  return p;
}

// Saves and restores the process-wide solver knobs every test mutates.
class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_threads_ = SetSolverThreads(0);
    SetSolverThreads(prev_threads_);
    prev_capacity_ = prob::MemoCache::Global().capacity();
  }
  void TearDown() override {
    SetSolverThreads(prev_threads_);
    prob::MemoCache::Global().SetCapacity(prev_capacity_);
    prob::MemoCache::Global().Clear();
  }

  std::size_t prev_threads_ = 0;
  std::size_t prev_capacity_ = 0;
};

TEST_F(DeterminismTest, MsAnalysisBitIdenticalAcrossSolverThreads) {
  // Memo off: every run recomputes, so this isolates the threading path.
  prob::MemoCache::Global().SetCapacity(0);
  const SystemParams p = Onr(240, 10.0);

  SetSolverThreads(1);
  const std::string reference = Fingerprint(MsApproachAnalyze(p));
  for (const std::size_t threads : {2u, 8u}) {
    SetSolverThreads(threads);
    EXPECT_EQ(Fingerprint(MsApproachAnalyze(p)), reference)
        << "solver-threads = " << threads;
  }
}

TEST_F(DeterminismTest, RegionPmfLiteralBitIdenticalAcrossSolverThreads) {
  prob::MemoCache::Global().SetCapacity(0);
  const RegionDecomposition decomp(1000.0, 10.0, 60.0);
  const double field = 32000.0 * 32000.0;

  SetSolverThreads(1);
  std::string reference;
  AppendBits(reference,
             CappedRegionReportPmfLiteral(120, field, decomp.area_h(), 0.9, 3));
  for (const std::size_t threads : {2u, 8u}) {
    SetSolverThreads(threads);
    std::string got;
    AppendBits(got,
               CappedRegionReportPmfLiteral(120, field, decomp.area_h(), 0.9, 3));
    EXPECT_EQ(got, reference) << "solver-threads = " << threads;
  }
}

TEST_F(DeterminismTest, MonteCarloBitIdenticalAcrossSolverThreads) {
  // Per-trial RNG substreams make the estimate a pure function of the
  // seed; the trial batch ParallelFor must not change it.
  TrialConfig config;
  config.params = Onr(60, 10.0);
  MonteCarloOptions mc;
  mc.trials = 400;
  mc.threads = 0;  // follow the solver-threads setting under test

  SetSolverThreads(1);
  const ProportionEstimate reference = EstimateDetectionProbability(config, mc);
  for (const std::size_t threads : {2u, 8u}) {
    SetSolverThreads(threads);
    const ProportionEstimate got = EstimateDetectionProbability(config, mc);
    std::string a;
    std::string b;
    AppendBits(a, reference.point);
    AppendBits(b, got.point);
    EXPECT_EQ(b, a) << "solver-threads = " << threads;
  }
}

TEST_F(DeterminismTest, ColdAndWarmMemoProduceIdenticalBytes) {
  prob::MemoCache::Global().SetCapacity(4096);
  prob::MemoCache::Global().Clear();
  const SystemParams p = Onr(180, 4.0);

  const prob::MemoCacheStats before = prob::MemoCache::Global().Stats();
  const std::string cold = Fingerprint(MsApproachAnalyze(p));
  const prob::MemoCacheStats mid = prob::MemoCache::Global().Stats();
  EXPECT_GT(mid.inserts, before.inserts) << "cold run must populate the memo";

  const std::string warm = Fingerprint(MsApproachAnalyze(p));
  const prob::MemoCacheStats after = prob::MemoCache::Global().Stats();
  EXPECT_GT(after.hits, mid.hits) << "second run must be served by the memo";
  EXPECT_EQ(warm, cold);

  // A k-sweep over the same scenario is also byte-stable: k only changes
  // the tail sum, never the cached distribution.
  SystemParams sweep = p;
  for (int k = 1; k <= 8; ++k) {
    sweep.threshold_reports = k;
    const MsApproachResult r = MsApproachAnalyze(sweep);
    std::string a;
    std::string b;
    AppendBits(a, r.report_distribution);
    AppendBits(b, MsApproachAnalyze(sweep).report_distribution);
    EXPECT_EQ(b, a) << "k = " << k;
  }
}

TEST_F(DeterminismTest, DeadlineBearingSolveNeverPopulatesMemo) {
  prob::MemoCache::Global().SetCapacity(4096);
  prob::MemoCache::Global().Clear();
  const SystemParams p = Onr(140, 6.0);
  // Counters are cumulative across the process; assert on deltas.
  const prob::MemoCacheStats base = prob::MemoCache::Global().Stats();

  // Uncancelled token with a generous deadline: the solve completes and
  // returns a correct value, but nothing may become resident — a request
  // that COULD have been cancelled mid-way must not be trusted to warm
  // the shared cache.
  const resilience::CancelToken token(resilience::Deadline::AfterMillis(60000));
  {
    const resilience::ScopedCancelScope scope(&token);
    const MsApproachResult r = MsApproachAnalyze(p);
    EXPECT_GT(r.detection_probability, 0.0);
  }
  prob::MemoCacheStats stats = prob::MemoCache::Global().Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.inserts, base.inserts);
  EXPECT_GT(stats.skipped_inserts, base.skipped_inserts);

  // Already-cancelled token: the solve aborts with Cancelled and likewise
  // leaves the memo untouched.
  const resilience::CancelToken cancelled;
  cancelled.Cancel(resilience::CancelReason::kDeadline);
  {
    const resilience::ScopedCancelScope scope(&cancelled);
    EXPECT_THROW(MsApproachAnalyze(p), resilience::Cancelled);
  }
  stats = prob::MemoCache::Global().Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.inserts, base.inserts);

  // The identical scenario solved afterwards without a token produces the
  // same bytes as the token-scoped solve did, and becomes resident.
  const MsApproachResult fresh = MsApproachAnalyze(p);
  EXPECT_GT(prob::MemoCache::Global().Stats().entries, 0u);
  {
    const resilience::CancelToken again(resilience::Deadline::AfterMillis(60000));
    const resilience::ScopedCancelScope scope(&again);
    // Lookups still hit under a token (reads are always safe).
    EXPECT_EQ(Fingerprint(MsApproachAnalyze(p)), Fingerprint(fresh));
  }
}

TEST_F(DeterminismTest, SApproachMemoIsByteStable) {
  prob::MemoCache::Global().SetCapacity(4096);
  prob::MemoCache::Global().Clear();
  const SystemParams p = Onr(120, 10.0);
  std::string cold;
  AppendBits(cold, SApproachExactDetectionProbability(p));
  std::string warm;
  AppendBits(warm, SApproachExactDetectionProbability(p));
  EXPECT_EQ(warm, cold);
  prob::MemoCache::Global().SetCapacity(0);
  std::string off;
  AppendBits(off, SApproachExactDetectionProbability(p));
  EXPECT_EQ(off, cold);
}

}  // namespace
}  // namespace sparsedet
