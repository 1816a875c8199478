// Micro performance suite (google-benchmark): regression guard for the
// hot paths — geometry decomposition, stage pmf construction, the full
// M-S analysis, a whole cold analyze, the memo-cache hit/key paths,
// ParallelFor dispatch, one Monte-Carlo trial, gating and track fitting,
// JSON number formatting, response rendering and the result-cache key. Not
// a paper experiment; keeps the library honest as it evolves.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/analysis.h"
#include "core/ms_approach.h"
#include "core/region_pmf.h"
#include "detect/track_estimate.h"
#include "detect/track_gate.h"
#include "engine/request.h"
#include "geometry/region_decomposition.h"
#include "prob/memo_cache.h"
#include "prob/pmf.h"
#include "sim/trial.h"

namespace {

using namespace sparsedet;

SystemParams Onr(int nodes, double speed) {
  SystemParams p = SystemParams::OnrDefaults();
  p.num_nodes = nodes;
  p.target_speed = speed;
  return p;
}

// Disables the process-wide memo cache for one benchmark's scope so the
// compute benchmarks keep measuring computation, not the cache hit path.
class ScopedMemoOff {
 public:
  ScopedMemoOff() : prev_(prob::MemoCache::Global().capacity()) {
    prob::MemoCache::Global().SetCapacity(0);
  }
  ~ScopedMemoOff() { prob::MemoCache::Global().SetCapacity(prev_); }

 private:
  std::size_t prev_;
};

void BM_RegionDecomposition(benchmark::State& state) {
  const double speed = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegionDecomposition(1000.0, speed, 60.0).ms());
  }
}
BENCHMARK(BM_RegionDecomposition)->Arg(10)->Arg(4)->Arg(1);

void BM_CappedRegionPmf(benchmark::State& state) {
  const ScopedMemoOff memo_off;
  const RegionDecomposition decomp(1000.0, 10.0, 60.0);
  const int cap = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CappedRegionReportPmf(
        240, 32000.0 * 32000.0, decomp.area_h(), 0.9, cap));
  }
}
BENCHMARK(BM_CappedRegionPmf)->Arg(3)->Arg(6)->Arg(12);

// Same call served from a warm memo cache: the cost of one canonical key
// build + sharded lookup + Pmf copy-out. The gap to BM_CappedRegionPmf is
// what each sweep point saves.
void BM_CappedRegionPmfMemoHit(benchmark::State& state) {
  const RegionDecomposition decomp(1000.0, 10.0, 60.0);
  prob::MemoCache::Global().SetCapacity(4096);
  CappedRegionReportPmf(240, 32000.0 * 32000.0, decomp.area_h(), 0.9, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CappedRegionReportPmf(
        240, 32000.0 * 32000.0, decomp.area_h(), 0.9, 6));
  }
}
BENCHMARK(BM_CappedRegionPmfMemoHit);

void BM_MemoKeyBuild(benchmark::State& state) {
  for (auto _ : state) {
    prob::MemoKey key("bench/key");
    key.AddInt(240).AddDouble(32000.0 * 32000.0).AddDouble(0.9).AddInt(6);
    benchmark::DoNotOptimize(key.bytes().size());
  }
}
BENCHMARK(BM_MemoKeyBuild);

// Dispatch + join cost of ParallelFor on a trivial body, per
// worker count; the floor any parallelized hot path must amortize.
void BM_ParallelForDispatch(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    ParallelFor(
        1024, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
        threads);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_PmfConvolvePower(benchmark::State& state) {
  const Pmf step({0.4, 0.3, 0.2, 0.1});
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(step.ConvolvePower(n).TotalMass());
  }
}
BENCHMARK(BM_PmfConvolvePower)->Arg(16)->Arg(64)->Arg(256);

void BM_FullMsAnalysis(benchmark::State& state) {
  const ScopedMemoOff memo_off;
  const SystemParams p = Onr(240, state.range(0) == 0 ? 10.0 : 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MsApproachAnalyze(p).detection_probability);
  }
}
BENCHMARK(BM_FullMsAnalysis)->Arg(0)->Arg(1);

// The same analysis with a warm memo: the per-point cost of a k-sweep
// after the first threshold (tail sum + result assembly only).
void BM_FullMsAnalysisMemoHit(benchmark::State& state) {
  const SystemParams p = Onr(240, 10.0);
  prob::MemoCache::Global().SetCapacity(4096);
  MsApproachAnalyze(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MsApproachAnalyze(p).detection_probability);
  }
}
BENCHMARK(BM_FullMsAnalysisMemoHit);

// One whole cold `analyze`: the M-S solve, both exact tails, the caps the
// 99% target needs and the cost models. Not gated; it shows how each part
// scales with N.
void BM_AnalyzeScenario(benchmark::State& state) {
  const ScopedMemoOff memo_off;
  const SystemParams p = Onr(static_cast<int>(state.range(0)), 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AnalyzeScenario(p, MsApproachOptions{}).exact_detection_probability);
  }
}
BENCHMARK(BM_AnalyzeScenario)
    ->Arg(240)
    ->Arg(2400)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_SingleTrial(benchmark::State& state) {
  TrialConfig config;
  config.params = Onr(static_cast<int>(state.range(0)), 10.0);
  const Rng base(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Rng rng = base.Substream(i++);
    benchmark::DoNotOptimize(RunTrial(config, rng).total_true_reports);
  }
}
BENCHMARK(BM_SingleTrial)->Arg(60)->Arg(240);

std::vector<SimReport> MakeReports(int count) {
  std::vector<SimReport> reports;
  Rng rng(7);
  for (int i = 0; i < count; ++i) {
    reports.push_back({.period = i % 20,
                       .node = i,
                       .node_pos = {rng.Uniform(0.0, 32000.0),
                                    rng.Uniform(0.0, 32000.0)},
                       .is_false_alarm = false});
  }
  return reports;
}

void BM_TrackGateChain(benchmark::State& state) {
  const std::vector<SimReport> reports =
      MakeReports(static_cast<int>(state.range(0)));
  const TrackGateParams gate{.speed = 10.0,
                             .period_length = 60.0,
                             .sensing_range = 1000.0,
                             .slack = 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(LongestTrackConsistentChain(reports, gate));
  }
}
BENCHMARK(BM_TrackGateChain)->Arg(20)->Arg(100)->Arg(400);

void BM_TrackFit(benchmark::State& state) {
  std::vector<SimReport> reports;
  for (int i = 0; i < 20; ++i) {
    reports.push_back({.period = i,
                       .node = i,
                       .node_pos = {600.0 * i, 100.0},
                       .is_false_alarm = false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FitConstantVelocityTrack(reports, 60.0).Speed());
  }
}
BENCHMARK(BM_TrackFit);

// One served number: AppendJsonNumber over a fixed seeded array of
// probabilities (mostly 16-17 significant digits, like solver output).
void BM_JsonWriteNumber(benchmark::State& state) {
  std::vector<double> probabilities(1024);
  Rng rng(15);
  for (double& p : probabilities) p = rng.UniformDouble();
  std::string out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    AppendJsonNumber(out, probabilities[i++ % probabilities.size()]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JsonWriteNumber);

// The text of one analyze answer, as a result-cache hit renders it.
void BM_RenderAnalyzeResponse(benchmark::State& state) {
  const SystemParams p = Onr(240, 10.0);
  const JsonValue response = engine::AnalyzeToJson(p, AnalyzeScenario(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(response.ToString());
  }
}
BENCHMARK(BM_RenderAnalyzeResponse);

// The result-cache key of one analyze unit.
void BM_CanonicalKey(benchmark::State& state) {
  const engine::WorkUnit unit = engine::ExpandRequest(engine::ParseRequest(
      ParseJson(R"({"op":"analyze","params":{"nodes":180,"speed":7.5}})"),
      1))[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::CanonicalKey(unit));
  }
}
BENCHMARK(BM_CanonicalKey);

}  // namespace

BENCHMARK_MAIN();
