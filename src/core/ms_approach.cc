#include "core/ms_approach.h"

#include <cmath>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/region_pmf.h"
#include "geometry/region_decomposition.h"
#include "markov/chain.h"
#include "markov/increment_chain.h"
#include "obs/timer.h"
#include "prob/memo_cache.h"
#include "resilience/cancel.h"

namespace sparsedet {
namespace {

// Everything MsApproachAnalyze derives that does not depend on the report
// threshold k or on normalization. Cached as one memo entry so a k-sweep
// (the common batch shape: one curve per threshold) reuses the full stage
// and propagation work and only re-evaluates the tail sum.
struct MsSolveCore {
  Pmf head_pmf;
  Pmf body_pmf;
  std::vector<Pmf> tail_pmfs;
  Pmf report_distribution;
};

std::size_t MsSolveCoreHeapBytes(const MsSolveCore& core) {
  std::size_t bytes = (core.head_pmf.size() + core.body_pmf.size() +
                       core.report_distribution.size()) *
                      sizeof(double);
  for (const Pmf& tail : core.tail_pmfs) bytes += tail.size() * sizeof(double);
  return bytes;
}

RegionDecomposition Decompose(const SystemParams& params) {
  obs::ObsTimer timer(obs::Phase::kRegionDecomposition);
  params.Validate();
  RegionDecomposition decomp(params.sensing_range, params.target_speed,
                             params.period_length);
  SPARSEDET_REQUIRE(params.window_periods > decomp.ms(),
                    "the M-S-approach requires M > ms");
  return decomp;
}

}  // namespace

MsApproachResult MsApproachAnalyze(const SystemParams& params,
                                   const MsApproachOptions& options) {
  SPARSEDET_REQUIRE(options.g >= 1 && options.gh >= 1,
                    "per-stage caps must be >= 1");
  SPARSEDET_REQUIRE(options.gh >= options.g,
                    "the Head NEDR is the largest region; gh >= g");
  SPARSEDET_REQUIRE(
      options.node_reliability >= 0.0 && options.node_reliability <= 1.0,
      "node reliability must be in [0, 1]");
  const auto compute_core = [&]() -> MsSolveCore {
    const RegionDecomposition decomp = Decompose(params);
    const int ms = decomp.ms();
    const int m_periods = params.window_periods;
    const double s = params.FieldArea();
    const double pd = params.detect_prob;
    const int n = params.num_nodes;
    const double rel = options.node_reliability;

    // Stage pmfs. Head uses the full DR subareas AreaH(i); Body/Tail use
    // the crescent NEDR subareas AreaB(i) / AreaT(j, i). The ms + 2 stages
    // are independent, but fanning them out over threads did not pay even
    // at large caps (docs/PERFORMANCE.md), so they run in a plain loop.
    MsSolveCore core;
    {
      obs::ObsTimer timer(obs::Phase::kMsHead);
      core.head_pmf =
          CappedRegionReportPmf(n, s, decomp.area_h(), pd, options.gh, rel);
    }
    {
      obs::ObsTimer timer(obs::Phase::kMsBody);
      core.body_pmf =
          CappedRegionReportPmf(n, s, decomp.area_b(), pd, options.g, rel);
    }
    core.tail_pmfs.reserve(static_cast<std::size_t>(ms));
    for (int j = 1; j <= ms; ++j) {
      obs::ObsTimer timer(obs::Phase::kMsTail);
      core.tail_pmfs.push_back(CappedRegionReportPmf(
          n, s, decomp.AreaTVector(j), pd, options.g, rel));
    }
    resilience::CancellationPoint();

    // Chain the stages: Result = u TH TB^(M-ms-1) prod_j TTj (Eq. 12).
    // The state space 0 .. M*Z is large enough that no transition can
    // overflow it (Head adds <= Z, each of the other M-1 stages adds
    // <= (ms+1)*g <= Z), so saturation never triggers; we still keep the
    // boundary behavior explicit.
    const std::size_t num_states =
        static_cast<std::size_t>(m_periods * (ms + 1) * options.gh + 1);
    std::vector<double> dist(num_states, 0.0);
    dist[0] = 1.0;  // u = [1 0 0 ... 0] (Eq. 11)

    {
      obs::ObsTimer timer(obs::Phase::kMsPropagate);
      if (options.use_transition_matrices) {
        const MarkovChain head(BuildIncrementTransitionMatrix(
            core.head_pmf, num_states, /*saturate_top=*/false));
        const MarkovChain body(BuildIncrementTransitionMatrix(
            core.body_pmf, num_states, /*saturate_top=*/false));
        dist = head.Propagate(dist);
        dist = body.PropagateSteps(dist, m_periods - ms - 1);
        for (const Pmf& tail : core.tail_pmfs) {
          const MarkovChain chain(BuildIncrementTransitionMatrix(
              tail, num_states, /*saturate_top=*/false));
          dist = chain.Propagate(dist);
        }
      } else {
        dist = PropagateIncrement(dist, core.head_pmf,
                                  /*saturate_top=*/false);
        dist = PropagateIncrementSteps(dist, core.body_pmf, m_periods - ms - 1,
                                       /*saturate_top=*/false);
        for (const Pmf& tail : core.tail_pmfs) {
          dist = PropagateIncrement(dist, tail, /*saturate_top=*/false);
        }
      }
    }
    core.report_distribution = Pmf(std::move(dist));
    return core;
  };

  // Everything up to the tail sum is independent of k/normalize, so it is
  // shared across the threshold sweep via the process-wide memo cache.
  // With the cache disabled (capacity 0) a lookup can never hit; skip the
  // key build and shard locking and compute directly.
  std::shared_ptr<const MsSolveCore> core;
  if (prob::MemoCache::Global().capacity() == 0) {
    core = std::make_shared<const MsSolveCore>(compute_core());
  } else {
    prob::MemoKey key("core/ms_solve_core");
    key.AddDouble(params.field_width)
        .AddDouble(params.field_height)
        .AddInt(params.num_nodes)
        .AddDouble(params.sensing_range)
        .AddDouble(params.detect_prob)
        .AddDouble(params.period_length)
        .AddDouble(params.target_speed)
        .AddInt(params.window_periods)
        .AddInt(options.gh)
        .AddInt(options.g)
        .AddDouble(options.node_reliability)
        .AddBool(options.use_transition_matrices);
    core = prob::MemoCache::Global().GetOrCompute<MsSolveCore>(
        key, compute_core, MsSolveCoreHeapBytes);
  }

  MsApproachResult result;
  // One tail stage per NEDR crescent, so the count recovers decomp.ms().
  result.ms = static_cast<int>(core->tail_pmfs.size());
  result.z = (result.ms + 1) * options.gh;
  result.num_states = params.window_periods * result.z + 1;
  result.head_pmf = core->head_pmf;
  result.body_pmf = core->body_pmf;
  result.tail_pmfs = core->tail_pmfs;
  result.report_distribution = core->report_distribution;
  result.total_mass = result.report_distribution.TotalMass();
  result.predicted_accuracy = MsPredictedAccuracy(params, options.gh,
                                                  options.g);

  const double tail_prob =
      result.report_distribution.TailSum(params.threshold_reports);
  result.detection_probability =
      options.normalize && result.total_mass > 0.0
          ? tail_prob / result.total_mass  // Eq. 13
          : tail_prob;
  return result;
}

double MsHeadStageAccuracy(const SystemParams& params, int gh) {
  params.Validate();
  return RegionCapAccuracy(params.num_nodes, params.FieldArea(),
                           params.DrArea(), gh);
}

double MsBodyStageAccuracy(const SystemParams& params, int g) {
  params.Validate();
  const double nedr = 2.0 * params.sensing_range * params.StepLength();
  return RegionCapAccuracy(params.num_nodes, params.FieldArea(), nedr, g);
}

double MsPredictedAccuracy(const SystemParams& params, int gh, int g) {
  const double xi_h = MsHeadStageAccuracy(params, gh);
  const double xi = MsBodyStageAccuracy(params, g);
  return xi_h * std::pow(xi, params.window_periods - 1);
}

MsRequiredCaps MsRequiredCapsFor(const SystemParams& params, double eta) {
  SPARSEDET_REQUIRE(eta > 0.0 && eta < 1.0, "eta must be in (0, 1)");
  params.Validate();
  // Per-stage requirement xi >= eta^(1/M) (the paper sets xi_h = xi).
  const double per_stage =
      std::pow(eta, 1.0 / static_cast<double>(params.window_periods));
  MsRequiredCaps caps;
  caps.gh = RequiredRegionCap(params.num_nodes, params.FieldArea(),
                              params.DrArea(), per_stage);
  const double nedr = 2.0 * params.sensing_range * params.StepLength();
  caps.g = RequiredRegionCap(params.num_nodes, params.FieldArea(), nedr,
                             per_stage);
  return caps;
}

double MsApproachCostModel(int ms, int gh, int g, int window_periods) {
  SPARSEDET_REQUIRE(ms >= 1 && gh >= 0 && g >= 0 && window_periods >= 1,
                    "invalid cost-model arguments");
  const double head = std::pow(static_cast<double>(ms), 2.0 * gh);
  const double rest = static_cast<double>(window_periods - 1) *
                      std::pow(static_cast<double>(ms), 2.0 * g);
  return head + rest;
}

}  // namespace sparsedet
