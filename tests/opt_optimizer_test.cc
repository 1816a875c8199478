// The inverse-deployment optimizer against ground truth: an exhaustive
// brute-force cross-check over a small grid, refinement behavior, degraded
// partial results (admission refusal and deadline expiry), cancellation,
// byte-identity across thread counts and cache temperature, and the
// serve-command wrapper.
#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "core/energy_model.h"
#include "core/false_alarm_model.h"
#include "core/ms_approach.h"
#include "engine/engine.h"
#include "opt/backend.h"
#include "opt/optimizer.h"
#include "opt/spec.h"
#include "prob/memo_cache.h"
#include "resilience/cancel.h"

namespace sparsedet::opt {
namespace {

engine::EngineOptions EngineConfig(std::size_t threads,
                                   std::size_t solver_threads = 1) {
  engine::EngineOptions options;
  options.threads = threads;
  options.solver_threads = solver_threads;
  return options;
}

// The small brute-forceable spec most tests share: 6 fleet sizes x 4
// thresholds against the paper's default scenario.
OptimizeSpec SmallSpec() {
  OptimizeSpec spec;
  spec.min_detection = 0.8;
  spec.nodes.set = true;
  spec.nodes.from = 60;
  spec.nodes.to = 160;
  spec.nodes.step = 20;
  spec.k.set = true;
  spec.k.from = 3;
  spec.k.to = 6;
  spec.k.step = 1;
  return spec;
}

JsonValue RunSpec(const OptimizeSpec& spec,
                  const engine::EngineOptions& options = EngineConfig(2),
                  OptimizerHooks hooks = {}) {
  engine::BatchEngine engine(options);
  SyncEngineBackend backend(engine);
  Optimizer optimizer(spec, backend, &engine.registry(), std::move(hooks));
  return optimizer.Run();
}

// Ground-truth evaluation of one candidate through the core library
// directly, mirroring the optimizer's feasibility predicate.
struct TruthEval {
  Candidate candidate;
  double detection = 0.0;
  bool feasible = false;
};

TruthEval EvaluateTruth(const OptimizeSpec& spec, const Candidate& c) {
  TruthEval e;
  e.candidate = c;
  const SystemParams p = CandidateParams(spec, c);
  e.detection = MsApproachAnalyze(p, spec.options).detection_probability;
  const double fa = CountOnlySystemFaProbability(p, c.duty * spec.pf);
  const EnergyReport energy =
      AnalyzeEnergy(p, spec.energy, c.duty,
                    SteadyStateReportRate(c.duty, spec.pf), spec.mean_hops);
  e.feasible = e.detection >= spec.min_detection && fa <= spec.max_fa &&
               energy.lifetime_days >= spec.min_lifetime_days;
  return e;
}

TEST(Optimizer, MatchesExhaustiveBruteForceOnTheCoarseGrid) {
  OptimizeSpec spec = SmallSpec();
  spec.refine_rounds = 0;  // grid-only, so brute force covers every eval

  // Ground truth: enumerate the same grid and pick the min-nodes feasible
  // candidate with the optimizer's CandidateLess tie-break.
  const std::vector<Candidate> grid = CoarseGrid(spec);
  ASSERT_EQ(grid.size(), 24u);
  const TruthEval* best = nullptr;
  std::vector<TruthEval> evals;
  evals.reserve(grid.size());
  for (const Candidate& c : grid) evals.push_back(EvaluateTruth(spec, c));
  std::size_t feasible_count = 0;
  for (const TruthEval& e : evals) {
    if (!e.feasible) continue;
    ++feasible_count;
    if (best == nullptr || e.candidate.nodes < best->candidate.nodes ||
        (e.candidate.nodes == best->candidate.nodes &&
         CandidateLess(e.candidate, best->candidate))) {
      best = &e;
    }
  }
  ASSERT_NE(best, nullptr) << "the cross-check spec must be satisfiable";

  const JsonValue result = RunSpec(spec);
  EXPECT_EQ(result.Find("grid")->AsDouble(), 24.0);
  EXPECT_EQ(result.Find("evaluated")->AsDouble(), 24.0);
  EXPECT_EQ(result.Find("feasible")->AsDouble(),
            static_cast<double>(feasible_count));
  EXPECT_FALSE(result.Find("degraded")->AsBool());
  const JsonValue* got = result.Find("best");
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(got->is_object());
  EXPECT_EQ(got->Find("nodes")->AsDouble(), best->candidate.nodes);
  EXPECT_EQ(got->Find("k")->AsDouble(), best->candidate.k);
  // The engine's inner solve is the same analytical solver.
  EXPECT_DOUBLE_EQ(got->Find("detection_probability")->AsDouble(),
                   best->detection);
}

TEST(Optimizer, MaxDetectionObjectiveMatchesBruteForce) {
  OptimizeSpec spec = SmallSpec();
  spec.objective = Objective::kMaxDetection;
  spec.refine_rounds = 0;
  const TruthEval* best = nullptr;
  std::vector<TruthEval> evals;
  for (const Candidate& c : CoarseGrid(spec)) {
    evals.push_back(EvaluateTruth(spec, c));
  }
  for (const TruthEval& e : evals) {
    if (!e.feasible) continue;
    if (best == nullptr || e.detection > best->detection) best = &e;
  }
  ASSERT_NE(best, nullptr);
  const JsonValue result = RunSpec(spec);
  const JsonValue* got = result.Find("best");
  ASSERT_TRUE(got != nullptr && got->is_object());
  EXPECT_EQ(got->Find("nodes")->AsDouble(), best->candidate.nodes);
  EXPECT_EQ(got->Find("k")->AsDouble(), best->candidate.k);
  EXPECT_DOUBLE_EQ(got->Find("detection_probability")->AsDouble(),
                   best->detection);
}

TEST(Optimizer, RefinementImprovesOnTheCoarseOptimum) {
  OptimizeSpec coarse = SmallSpec();
  coarse.refine_rounds = 0;
  OptimizeSpec refined = SmallSpec();
  refined.refine_rounds = 2;

  const JsonValue coarse_result = RunSpec(coarse);
  const JsonValue refined_result = RunSpec(refined);
  const JsonValue* coarse_best = coarse_result.Find("best");
  const JsonValue* refined_best = refined_result.Find("best");
  ASSERT_TRUE(coarse_best != nullptr && coarse_best->is_object());
  ASSERT_TRUE(refined_best != nullptr && refined_best->is_object());

  // The step-halving neighborhood must never lose to the coarse grid, and
  // on this spec (coarse optimum 100 nodes, true optimum between grid
  // lines) it strictly improves.
  EXPECT_LT(refined_best->Find("nodes")->AsDouble(),
            coarse_best->Find("nodes")->AsDouble());
  EXPECT_GE(refined_best->Find("detection_probability")->AsDouble(), 0.8);
  EXPECT_EQ(refined_result.Find("refine_rounds")->AsDouble(), 2.0);
  EXPECT_GT(refined_result.Find("evaluated")->AsDouble(),
            refined_result.Find("grid")->AsDouble());
}

// A grid wider than one solve batch, for tests that stop between batches.
OptimizeSpec TwoBatchSpec() {
  OptimizeSpec spec;
  spec.min_detection = 0.8;
  spec.nodes.set = true;
  spec.nodes.from = 60;
  spec.nodes.to = 162;
  spec.nodes.step = 2;  // 52 values
  spec.k.set = true;
  spec.k.from = 2;
  spec.k.to = 6;  // x5 = 260 candidates, two batches
  return spec;
}

TEST(Optimizer, AdmissionRefusalYieldsDegradedPartial) {
  OptimizerHooks hooks;
  int admits = 0;
  hooks.admit = [&admits](std::size_t batch_size,
                          const resilience::Deadline&) {
    EXPECT_GT(batch_size, 0u);
    return ++admits == 1;  // admit the first batch, refuse the second
  };
  const JsonValue result = RunSpec(TwoBatchSpec(), EngineConfig(2), hooks);
  EXPECT_TRUE(result.Find("degraded")->AsBool());
  EXPECT_EQ(result.Find("evaluated")->AsDouble(),
            static_cast<double>(kSolveBatchSize));
  EXPECT_EQ(result.Find("batches")->AsDouble(), 1.0);
  EXPECT_EQ(result.Find("refine_rounds")->AsDouble(), 0.0);
  // The partial result is still a valid answer over what was evaluated.
  const JsonValue* best = result.Find("best");
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->is_object());
}

TEST(Optimizer, DeadlineExpiryYieldsDegradedPartialNotAHang) {
  OptimizeSpec spec = TwoBatchSpec();
  spec.deadline_ms = 1;
  OptimizerHooks hooks;
  // Make the deadline deterministically expire between batches: the admit
  // hook (called before each batch) outsleeps the budget.
  hooks.admit = [](std::size_t, const resilience::Deadline&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  };
  const JsonValue result = RunSpec(spec, EngineConfig(2), hooks);
  EXPECT_TRUE(result.Find("degraded")->AsBool());
  EXPECT_LT(result.Find("evaluated")->AsDouble(),
            result.Find("grid")->AsDouble());
  EXPECT_EQ(result.Find("refine_rounds")->AsDouble(), 0.0);
}

TEST(Optimizer, CancelledTokenAbortsTheRun) {
  auto token = std::make_shared<resilience::CancelToken>();
  token->Cancel(resilience::CancelReason::kUser);
  OptimizerHooks hooks;
  hooks.cancel = token;
  engine::BatchEngine engine(EngineConfig(2));
  SyncEngineBackend backend(engine);
  Optimizer optimizer(SmallSpec(), backend, &engine.registry(), hooks);
  EXPECT_THROW(optimizer.Run(), resilience::Cancelled);
}

TEST(Optimizer, ByteIdenticalAcrossThreadsAndCacheTemperature) {
  const OptimizeSpec spec = SmallSpec();
  prob::MemoCache::Global().Clear();
  const std::string cold_1 = RunSpec(spec, EngineConfig(1, 1)).ToString();
  const std::string warm_8 = RunSpec(spec, EngineConfig(4, 8)).ToString();
  prob::MemoCache::Global().Clear();
  const std::string cold_4 = RunSpec(spec, EngineConfig(4, 2)).ToString();
  EXPECT_EQ(cold_1, warm_8);
  EXPECT_EQ(cold_1, cold_4);
}

TEST(Optimizer, FrontierByteIdenticalAcrossThreads) {
  OptimizeSpec spec;
  spec.objective = Objective::kMinEnergy;
  spec.mode = SearchMode::kFrontier;
  spec.pf = 0.001;
  spec.min_detection = 0.0;
  spec.nodes.set = true;
  spec.nodes.from = 80;
  spec.nodes.to = 160;
  spec.nodes.step = 40;
  spec.duty.set = true;
  spec.duty.from = 0.2;
  spec.duty.to = 1.0;
  spec.duty.step = 0.2;
  prob::MemoCache::Global().Clear();
  const std::string a = RunSpec(spec, EngineConfig(1, 1)).ToString();
  const std::string b = RunSpec(spec, EngineConfig(4, 4)).ToString();
  EXPECT_EQ(a, b);
}

TEST(Optimizer, FrontierIsNonDominatedAndSorted) {
  OptimizeSpec spec;
  spec.objective = Objective::kMinEnergy;
  spec.mode = SearchMode::kFrontier;
  spec.pf = 0.001;
  spec.min_detection = 0.0;
  spec.nodes.set = true;
  spec.nodes.from = 80;
  spec.nodes.to = 160;
  spec.nodes.step = 40;
  spec.duty.set = true;
  spec.duty.from = 0.2;
  spec.duty.to = 1.0;
  spec.duty.step = 0.2;
  const JsonValue result = RunSpec(spec);
  const JsonValue* frontier = result.Find("frontier");
  ASSERT_TRUE(frontier != nullptr && frontier->is_array());
  ASSERT_GE(frontier->Size(), 2u);
  double prev_drain = -1.0;
  double prev_detection = -1.0;
  for (const JsonValue& point : frontier->Items()) {
    const double drain = point.Find("drain_per_period")->AsDouble();
    const double detection =
        point.Find("detection_probability")->AsDouble();
    // Strictly increasing in both coordinates: cheaper points on the
    // frontier never dominate more expensive ones.
    EXPECT_GT(drain, prev_drain);
    EXPECT_GT(detection, prev_detection);
    prev_drain = drain;
    prev_detection = detection;
  }
}

TEST(Optimizer, RegistersOptMetricsInTheEngineRegistry) {
  engine::BatchEngine engine(EngineConfig(2));
  SyncEngineBackend backend(engine);
  Optimizer optimizer(SmallSpec(), backend, &engine.registry());
  optimizer.Run();
  const obs::RegistrySnapshot snapshot = engine.MetricsSnapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  EXPECT_EQ(counter("opt_runs_total"), 1u);
  EXPECT_EQ(counter("opt_candidates_total"), 32u);  // 24 grid + 8 refine
  EXPECT_GE(counter("opt_batches_total"), 3u);
  EXPECT_GT(counter("opt_feasible_total"), 0u);
  EXPECT_EQ(counter("opt_refine_rounds_total"), 2u);
  bool histogram_found = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "opt_iteration_us") histogram_found = true;
  }
  EXPECT_TRUE(histogram_found);
}

TEST(HandleOptimizeCommand, AnswersWithEchoedIdAndResult) {
  engine::BatchEngine engine(EngineConfig(2));
  SyncEngineBackend backend(engine);
  JsonValue command = JsonValue::Object();
  command.Set("cmd", "optimize")
      .Set("id", static_cast<std::int64_t>(7))
      .Set("spec", JsonValue::Object());  // one-candidate default scenario
  const JsonValue response =
      HandleOptimizeCommand(command, backend, &engine.registry());
  ASSERT_NE(response.Find("id"), nullptr);
  EXPECT_EQ(response.Find("id")->AsDouble(), 7.0);
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("grid")->AsDouble(), 1.0);
  EXPECT_EQ(result->Find("evaluated")->AsDouble(), 1.0);
}

TEST(HandleOptimizeCommand, ErrorsAreStructuredNotThrown) {
  engine::BatchEngine engine(EngineConfig(2));
  SyncEngineBackend backend(engine);

  JsonValue missing_spec = JsonValue::Object();
  missing_spec.Set("cmd", "optimize").Set("id", "a");
  JsonValue r1 = HandleOptimizeCommand(missing_spec, backend, nullptr);
  ASSERT_NE(r1.Find("error"), nullptr);
  EXPECT_NE(r1.Find("error")->AsString().find("spec"), std::string::npos);
  ASSERT_NE(r1.Find("error_code"), nullptr);
  EXPECT_EQ(r1.Find("error_code")->AsString(), "invalid_argument");
  ASSERT_NE(r1.Find("id"), nullptr);  // id echoed even on error
  EXPECT_EQ(r1.Find("id")->AsString(), "a");

  JsonValue unknown_key = JsonValue::Object();
  unknown_key.Set("cmd", "optimize")
      .Set("spec", JsonValue::Object())
      .Set("extra", 1.0);
  JsonValue r2 = HandleOptimizeCommand(unknown_key, backend, nullptr);
  ASSERT_NE(r2.Find("error"), nullptr);
  EXPECT_NE(r2.Find("error")->AsString().find("extra"), std::string::npos);

  JsonValue bad_spec = JsonValue::Object();
  JsonValue spec = JsonValue::Object();
  spec.Set("objective", "fewest");
  bad_spec.Set("cmd", "optimize").Set("spec", std::move(spec));
  JsonValue r3 = HandleOptimizeCommand(bad_spec, backend, nullptr);
  ASSERT_NE(r3.Find("error"), nullptr);
  EXPECT_NE(r3.Find("error")->AsString().find("objective"),
            std::string::npos);

  JsonValue r4 = HandleOptimizeCommand(JsonValue("text"), backend, nullptr);
  ASSERT_NE(r4.Find("error"), nullptr);
  ASSERT_NE(r4.Find("error_code"), nullptr);
  EXPECT_EQ(r4.Find("error_code")->AsString(), "invalid_argument");
}

TEST(HandleOptimizeCommand, CancellationBecomesAnErrorResponse) {
  engine::BatchEngine engine(EngineConfig(2));
  SyncEngineBackend backend(engine);
  auto token = std::make_shared<resilience::CancelToken>();
  token->Cancel(resilience::CancelReason::kUser);
  OptimizerHooks hooks;
  hooks.cancel = token;
  JsonValue command = JsonValue::Object();
  command.Set("cmd", "optimize").Set("spec", JsonValue::Object());
  const JsonValue response =
      HandleOptimizeCommand(command, backend, &engine.registry(), hooks);
  ASSERT_NE(response.Find("error"), nullptr);
  EXPECT_NE(response.Find("error")->AsString().find("cancelled"),
            std::string::npos);
  EXPECT_NE(response.Find("error")->AsString().find("user"),
            std::string::npos);
  ASSERT_NE(response.Find("error_code"), nullptr);
  EXPECT_EQ(response.Find("error_code")->AsString(), "cancelled");
}

TEST(WriteOptimizeOutput, FrontierModeEmitsOneLinePerPointPlusSummary) {
  OptimizeSpec spec;
  spec.mode = SearchMode::kFrontier;
  spec.objective = Objective::kMinEnergy;
  spec.min_detection = 0.0;
  spec.duty.set = true;
  spec.duty.from = 0.5;
  spec.duty.to = 1.0;
  spec.duty.step = 0.5;
  const JsonValue result = RunSpec(spec);
  std::ostringstream out;
  WriteRowsThenSummary(result, "frontier", out);

  const std::size_t frontier_size = result.Find("frontier")->Size();
  ASSERT_GT(frontier_size, 0u);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> collected;
  while (std::getline(lines, line)) collected.push_back(line);
  ASSERT_EQ(collected.size(), frontier_size + 1);
  for (std::size_t i = 0; i < frontier_size; ++i) {
    EXPECT_NE(collected[i].find("\"duty\""), std::string::npos);
  }
  EXPECT_NE(collected.back().find("\"frontier_size\":"), std::string::npos);
  EXPECT_EQ(collected.back().find("\"frontier\":"), std::string::npos);
}

TEST(WriteOptimizeOutput, OptimizeModeIsASingleLine) {
  OptimizeSpec spec;  // one-candidate grid
  const JsonValue result = RunSpec(spec);
  std::ostringstream out;
  WriteRowsThenSummary(result, "frontier", out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("\"best\":"), std::string::npos);
}

}  // namespace
}  // namespace sparsedet::opt
