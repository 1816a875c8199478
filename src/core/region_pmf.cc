#include "core/region_pmf.h"

#include <algorithm>
#include <numeric>

#include "common/arena.h"
#include "common/check.h"
#include "common/parallel.h"
#include "prob/binomial.h"
#include "prob/memo_cache.h"
#include "resilience/cancel.h"
#include "simd/simd.h"

namespace sparsedet {
namespace {

// Canonical memo key for a region-pmf call site: every argument that can
// change the result goes in, doubles bit-exact. The tag separates call
// sites so identical parameter tuples never alias across functions.
prob::MemoKey RegionKey(std::string_view tag, int num_nodes, double field_area,
                        const std::vector<double>& areas, double pd) {
  prob::MemoKey key(tag);
  key.AddInt(num_nodes)
      .AddDouble(field_area)
      .AddDouble(pd)
      .AddInt(static_cast<std::int64_t>(areas.size()));
  for (double a : areas) key.AddDouble(a);
  return key;
}

std::size_t PmfHeapBytes(const Pmf& pmf) { return pmf.size() * sizeof(double); }

double CheckAreas(const std::vector<double>& areas, double field_area,
                  double pd) {
  SPARSEDET_REQUIRE(!areas.empty(), "region needs at least one subarea");
  SPARSEDET_REQUIRE(pd >= 0.0 && pd <= 1.0, "Pd must be in [0, 1]");
  double total = 0.0;
  for (double a : areas) {
    SPARSEDET_REQUIRE(a >= 0.0, "subarea sizes must be non-negative");
    total += a;
  }
  SPARSEDET_REQUIRE(total > 0.0, "region must have positive total area");
  SPARSEDET_REQUIRE(total <= field_area * (1.0 + 1e-9),
                    "region cannot exceed the field");
  return total;
}

}  // namespace

Pmf ConditionalSensorReportPmf(const std::vector<double>& areas, double pd) {
  const double total = CheckAreas(areas, 1e300, pd);
  const int max_periods = static_cast<int>(areas.size());
  const simd::Kernels& kern = simd::Active();
  std::vector<double> mass(static_cast<std::size_t>(max_periods) + 1, 0.0);
  for (int periods = 1; periods <= max_periods; ++periods) {
    const double weight = areas[periods - 1] / total;
    if (weight == 0.0) continue;
    // One hoisted Binomial(periods, pd) row instead of per-m transcendental
    // calls; the axpy accumulates the same products in the same m order.
    const std::vector<double> row = BinomialPmfVector(periods, pd);
    kern.axpy(weight, row.data(), mass.data(), row.size());
  }
  return Pmf(std::move(mass));
}

namespace {

// Per-sensor unconditional pmf: outside the region with probability
// 1 - total/S (zero reports), otherwise in subarea i with probability
// areas[i]/S generating Binomial(i+1, pd) reports; then thinned by the
// node's reliability.
Pmf ThinnedSensorReportPmf(double field_area, const std::vector<double>& areas,
                           double pd, double node_reliability) {
  SPARSEDET_REQUIRE(field_area > 0.0, "field area must be positive");
  SPARSEDET_REQUIRE(node_reliability >= 0.0 && node_reliability <= 1.0,
                    "node reliability must be in [0, 1]");
  const double total = CheckAreas(areas, field_area, pd);
  const int max_periods = static_cast<int>(areas.size());
  const simd::Kernels& kern = simd::Active();
  std::vector<double> per(static_cast<std::size_t>(max_periods) + 1, 0.0);
  per[0] = 1.0 - total / field_area;
  for (int periods = 1; periods <= max_periods; ++periods) {
    const double weight = areas[periods - 1] / field_area;
    if (weight == 0.0) continue;
    const std::vector<double> row = BinomialPmfVector(periods, pd);
    kern.axpy(weight, row.data(), per.data(), row.size());
  }
  return Pmf(std::move(per)).ThinnedBy(node_reliability);
}

Pmf ComputeExactRegionReportPmf(int num_nodes, double field_area,
                                const std::vector<double>& areas, double pd,
                                double node_reliability, int max_reports) {
  SPARSEDET_REQUIRE(num_nodes >= 0, "node count must be >= 0");
  const Pmf per =
      ThinnedSensorReportPmf(field_area, areas, pd, node_reliability);
  return max_reports < 0
             ? per.ConvolvePower(num_nodes)
             : per.ConvolvePower(num_nodes, max_reports, /*saturate=*/true);
}

// The convolution chain below accumulates strictly in n order; it stays
// sequential on purpose so the floating-point association — and therefore
// every golden value — is independent of the thread count. Parallelism and
// reuse come from the memo cache wrapper and from the callers (the M-S
// stages run these calls concurrently).
Pmf ComputeCappedRegionReportPmf(int num_nodes, double field_area,
                                 const std::vector<double>& areas, double pd,
                                 int cap, double node_reliability) {
  SPARSEDET_REQUIRE(num_nodes >= 0, "node count must be >= 0");
  SPARSEDET_REQUIRE(field_area > 0.0, "field area must be positive");
  SPARSEDET_REQUIRE(cap >= 0, "cap must be >= 0");
  SPARSEDET_REQUIRE(node_reliability >= 0.0 && node_reliability <= 1.0,
                    "node reliability must be in [0, 1]");
  const double total = CheckAreas(areas, field_area, pd);
  const double p_in = total / field_area;
  const int max_periods = static_cast<int>(areas.size());
  const int effective_cap = std::min(cap, num_nodes);

  const Pmf conditional =
      ConditionalSensorReportPmf(areas, pd).ThinnedBy(node_reliability);
  const std::size_t cond_size = conditional.size();
  std::vector<double> out(
      static_cast<std::size_t>(effective_cap) * max_periods + 1, 0.0);
  // The n-fold powers conditional^0, conditional^1, ... ping-pong through
  // two arena buffers instead of allocating a Pmf per n; ConvolveAccumulate
  // is the exact kernel ConvolveWith runs, so the chain — still strictly
  // sequential in n to keep the FP association thread-count-independent —
  // produces bit-identical tables.
  const std::size_t max_fold =
      static_cast<std::size_t>(effective_cap) * (cond_size - 1) + 1;
  common::ScratchArena::Frame frame;
  double* fold = frame.Alloc(max_fold);
  double* next = frame.Alloc(max_fold);
  fold[0] = 1.0;  // conditional^0 = Delta(0)
  std::size_t fold_size = 1;
  const simd::Kernels& kern = simd::Active();
  const std::vector<double> p_n = BinomialPmfVector(num_nodes, p_in,
                                                    effective_cap);
  for (int n = 0; n <= effective_cap; ++n) {
    resilience::CancellationPoint();
    kern.axpy(p_n[n], fold, out.data(), std::min(fold_size, out.size()));
    if (n < effective_cap) {
      const std::size_t next_size = fold_size + cond_size - 1;
      std::fill(next, next + next_size, 0.0);
      ConvolveAccumulate(fold, fold_size, conditional.mass().data(),
                         cond_size, next, next_size, /*saturate=*/false);
      std::swap(fold, next);
      fold_size = next_size;
    }
  }
  return Pmf(std::move(out));
}

}  // namespace

Pmf ExactRegionReportPmf(int num_nodes, double field_area,
                         const std::vector<double>& areas, double pd,
                         double node_reliability, int max_reports) {
  // With the cache disabled (capacity 0: cold benchmarks, memo-off runs)
  // a lookup can never hit, so key construction and shard locking are
  // pure overhead on the solve hot path — compute directly.
  if (prob::MemoCache::Global().capacity() == 0) {
    return ComputeExactRegionReportPmf(num_nodes, field_area, areas, pd,
                                       node_reliability, max_reports);
  }
  prob::MemoKey key =
      RegionKey("core/exact_region_pmf", num_nodes, field_area, areas, pd);
  key.AddDouble(node_reliability).AddInt(max_reports);
  return *prob::MemoCache::Global().GetOrCompute<Pmf>(
      key,
      [&] {
        return ComputeExactRegionReportPmf(num_nodes, field_area, areas, pd,
                                           node_reliability, max_reports);
      },
      PmfHeapBytes);
}

Pmf CappedRegionReportPmf(int num_nodes, double field_area,
                          const std::vector<double>& areas, double pd,
                          int cap, double node_reliability) {
  if (prob::MemoCache::Global().capacity() == 0) {
    return ComputeCappedRegionReportPmf(num_nodes, field_area, areas, pd, cap,
                                        node_reliability);
  }
  prob::MemoKey key =
      RegionKey("core/capped_region_pmf", num_nodes, field_area, areas, pd);
  key.AddInt(cap).AddDouble(node_reliability);
  return *prob::MemoCache::Global().GetOrCompute<Pmf>(
      key,
      [&] {
        return ComputeCappedRegionReportPmf(num_nodes, field_area, areas, pd,
                                            cap, node_reliability);
      },
      PmfHeapBytes);
}

namespace {

// Recursive ordered-tuple enumeration from the paper's Algorithm 1:
// choose the subarea R_d of the d-th sensor, then its report count, and
// accumulate p_loc * prod_d p(N_d, R_d) into out[sum N_d].
void EnumerateLiteral(const std::vector<double>& area_over_s,
                      const std::vector<std::vector<double>>& report_pmfs,
                      int depth, int reports_so_far, double weight,
                      std::vector<double>& out) {
  if (depth == 0) {
    out[reports_so_far] += weight;
    return;
  }
  resilience::CancellationPoint();
  for (std::size_t region = 0; region < area_over_s.size(); ++region) {
    const double w_region = weight * area_over_s[region];
    if (w_region == 0.0) continue;
    const std::vector<double>& pmf = report_pmfs[region];
    for (std::size_t m = 0; m < pmf.size(); ++m) {
      if (pmf[m] == 0.0) continue;
      EnumerateLiteral(area_over_s, report_pmfs, depth - 1,
                       reports_so_far + static_cast<int>(m),
                       w_region * pmf[m], out);
    }
  }
}

}  // namespace

namespace {

Pmf ComputeCappedRegionReportPmfLiteral(int num_nodes, double field_area,
                                        const std::vector<double>& areas,
                                        double pd, int cap) {
  SPARSEDET_REQUIRE(num_nodes >= 0, "node count must be >= 0");
  SPARSEDET_REQUIRE(field_area > 0.0, "field area must be positive");
  SPARSEDET_REQUIRE(cap >= 0, "cap must be >= 0");
  const double total = CheckAreas(areas, field_area, pd);
  const double p_in = total / field_area;
  const int max_periods = static_cast<int>(areas.size());
  const int effective_cap = std::min(cap, num_nodes);

  // Region weights Region(i)/S and per-region report pmfs p(m, i) (Eq. 3).
  std::vector<double> area_over_s(areas.size());
  std::vector<std::vector<double>> report_pmfs(areas.size());
  for (std::size_t i = 0; i < areas.size(); ++i) {
    area_over_s[i] = areas[i] / field_area;
    report_pmfs[i] = BinomialPmfVector(static_cast<int>(i) + 1, pd);
  }

  const std::size_t out_size =
      static_cast<std::size_t>(effective_cap) * max_periods + 1;
  // The per-depth enumerations are independent and wildly uneven (cost
  // grows as areas.size()^n), so workers claim depths one at a time from
  // ParallelFor's shared cursor; the final accumulation below walks depths
  // in index order, which keeps the floating-point association — and
  // hence the bits — identical to the sequential loop for every thread
  // count.
  std::vector<std::vector<double>> partials(
      static_cast<std::size_t>(effective_cap) + 1);
  // The depth-n enumeration visits ~areas.size()^n tuples; the deepest
  // depth dominates, so the mean per-item cost is ~total / (cap + 1).
  // Below the dispatch threshold the whole enumeration is cheaper than
  // spawning workers and runs inline.
  double est_total_ns = 5.0;
  for (int d = 0; d < effective_cap; ++d) {
    est_total_ns *= static_cast<double>(areas.size());
    if (est_total_ns > 1e12) break;  // saturate; definitely parallel
  }
  ParallelOptions enum_opts;
  enum_opts.work_ns_hint = static_cast<std::size_t>(
      est_total_ns / static_cast<double>(partials.size())) + 1;
  ParallelFor(partials.size(), enum_opts, [&](std::size_t n) {
    std::vector<double> partial(out_size, 0.0);
    EnumerateLiteral(area_over_s, report_pmfs, static_cast<int>(n), 0, 1.0,
                     partial);
    partials[n] = std::move(partial);
  });

  std::vector<double> out(out_size, 0.0);
  for (int n = 0; n <= effective_cap; ++n) {
    // pS{(n)(R1..Rn)} = C(N, n) (1 - A/S)^(N-n) prod Region(R_i)/S; the
    // leading factor is shared by every tuple of this depth. Note
    // C(N, n) (1 - A/S)^(N-n) (A/S)^n = BinomialPmf(N, n, A/S) and the
    // enumeration above multiplies in exactly (A/S)^n via the region
    // weights, so scale by BinomialPmf / (A/S)^n for stability.
    double scale = BinomialPmf(num_nodes, n, p_in);
    for (int d = 0; d < n; ++d) scale /= p_in;
    simd::Active().axpy(scale, partials[n].data(), out.data(), out.size());
  }
  return Pmf(std::move(out));
}

}  // namespace

Pmf CappedRegionReportPmfLiteral(int num_nodes, double field_area,
                                 const std::vector<double>& areas, double pd,
                                 int cap) {
  if (prob::MemoCache::Global().capacity() == 0) {
    return ComputeCappedRegionReportPmfLiteral(num_nodes, field_area, areas,
                                               pd, cap);
  }
  prob::MemoKey key = RegionKey("core/capped_region_pmf_literal", num_nodes,
                                field_area, areas, pd);
  key.AddInt(cap);
  return *prob::MemoCache::Global().GetOrCompute<Pmf>(
      key,
      [&] {
        return ComputeCappedRegionReportPmfLiteral(num_nodes, field_area,
                                                   areas, pd, cap);
      },
      PmfHeapBytes);
}

namespace {

void CheckRegionArea(int num_nodes, double field_area, double region_area) {
  SPARSEDET_REQUIRE(num_nodes >= 0, "node count must be >= 0");
  SPARSEDET_REQUIRE(field_area > 0.0 && region_area > 0.0 &&
                        region_area <= field_area * (1.0 + 1e-9),
                    "region area must be in (0, field area]");
}

}  // namespace

double RegionCapAccuracy(int num_nodes, double field_area, double region_area,
                         int cap) {
  CheckRegionArea(num_nodes, field_area, region_area);
  return BinomialCdf(num_nodes, cap, region_area / field_area);
}

int RequiredRegionCap(int num_nodes, double field_area, double region_area,
                      double accuracy) {
  SPARSEDET_REQUIRE(accuracy > 0.0 && accuracy <= 1.0,
                    "accuracy must be in (0, 1]");
  if (num_nodes <= 0) return num_nodes;  // no cap to try, nothing to check
  CheckRegionArea(num_nodes, field_area, region_area);
  // Up to N/2, BinomialCdf sums the lower tail from 0.0 in ascending i, so
  // one running sum repeats its additions bit for bit and the scan costs
  // O(cap) pmf terms instead of O(cap^2). Above N/2 it sums the upper tail
  // instead, so only it decides whether a cap passes. The running sum
  // still approximates the same cdf from the same pmf terms: the two
  // differ only by rounding in the pmf's total mass and in the two sums,
  // which is far below kSkipSlack at any N this scan can finish. A cap
  // whose running sum is short of accuracy - kSkipSlack therefore fails
  // there too, and is skipped without its O(N) upper-tail sum.
  constexpr double kSkipSlack = 1e-6;
  const double p = region_area / field_area;
  double lower_tail = 0.0;
  for (int cap = 0; cap < num_nodes; ++cap) {
    lower_tail += BinomialPmf(num_nodes, cap, p);
    if (cap <= num_nodes / 2) {
      if (std::min(lower_tail, 1.0) >= accuracy) return cap;
    } else if (lower_tail >= accuracy - kSkipSlack &&
               RegionCapAccuracy(num_nodes, field_area, region_area, cap) >=
                   accuracy) {
      return cap;
    }
  }
  return num_nodes;
}

JointPmf ConditionalSensorJointPmf(const std::vector<double>& areas, double pd,
                                   int max_m, int max_n) {
  const double total = CheckAreas(areas, 1e300, pd);
  SPARSEDET_REQUIRE(max_m >= static_cast<int>(areas.size()),
                    "max_m too small to hold one sensor's reports");
  SPARSEDET_REQUIRE(max_n >= 1, "max_n must be >= 1");
  JointPmf joint(max_m, max_n);
  for (int periods = 1; periods <= static_cast<int>(areas.size()); ++periods) {
    const double weight = areas[periods - 1] / total;
    if (weight == 0.0) continue;
    for (int m = 0; m <= periods; ++m) {
      joint.At(m, m >= 1 ? 1 : 0) += weight * BinomialPmf(periods, m, pd);
    }
  }
  return joint;
}

JointPmf CappedRegionJointPmf(int num_nodes, double field_area,
                              const std::vector<double>& areas, double pd,
                              int cap, int max_m, int max_n) {
  SPARSEDET_REQUIRE(num_nodes >= 0, "node count must be >= 0");
  SPARSEDET_REQUIRE(field_area > 0.0, "field area must be positive");
  SPARSEDET_REQUIRE(cap >= 0, "cap must be >= 0");
  const double total = CheckAreas(areas, field_area, pd);
  const double p_in = total / field_area;
  const int effective_cap = std::min(cap, num_nodes);
  SPARSEDET_REQUIRE(
      max_m >= effective_cap * static_cast<int>(areas.size()),
      "max_m too small to hold the capped region's reports exactly");

  const JointPmf conditional =
      ConditionalSensorJointPmf(areas, pd, max_m, max_n);
  JointPmf out(max_m, max_n);
  JointPmf n_fold = JointPmf::DeltaZero(max_m, max_n);
  const std::vector<double> p_n = BinomialPmfVector(num_nodes, p_in,
                                                    effective_cap);
  for (int n = 0; n <= effective_cap; ++n) {
    resilience::CancellationPoint();
    // Same element order as the historical (m, nn) double loop: the grid
    // is row-major, so one flat axpy accumulates identically.
    out.AccumulateScaled(n_fold, p_n[n]);
    if (n < effective_cap) {
      // Node axis saturates (">= h nodes"); the report axis is sized to be
      // exact, so saturation there never triggers.
      n_fold = n_fold.ConvolveWith(conditional, /*saturate_m=*/true,
                                   /*saturate_n=*/true);
    }
  }
  return out;
}

}  // namespace sparsedet
