// The Spatial approach (paper Section 3.3).
//
// The S-approach treats the whole M-period Aggregate Region as one region,
// splits it into Region(i) subareas (a resident sensor covers the target
// for exactly i periods) and computes the distribution of the total number
// of detection reports, enumerating placements of at most G sensors inside
// the ARegion. Its accuracy is eta_S = P[Binomial(N, |ARegion|/S) <= G]
// (Eq. 5), and its cost blows up as ~ ms^(2G) — the motivation for the
// M-S-approach.
//
// Because the sensors are i.i.d., the *uncapped* S-approach has a cheap
// closed form (an N-fold convolution); we expose it as the exact model
// reference against which every approximation in this library is measured.
#pragma once

#include "core/params.h"
#include "prob/pmf.h"

namespace sparsedet {

struct SApproachOptions {
  int cap = 5;  // G: maximum number of sensors enumerated inside the ARegion
  // When true, reproduce the paper's Algorithm-1 ordered-tuple enumeration
  // verbatim (exponential in cap); otherwise use the algebraically
  // identical mixture-convolution form. Results are bit-for-bit comparable.
  bool literal_enumeration = false;
  bool normalize = true;  // renormalize the truncated distribution
  // Failure-injection extension (1.0 = the paper's model).
  double node_reliability = 1.0;
};

struct SApproachResult {
  Pmf report_distribution;        // truncated: TotalMass() == eta_S
  double total_mass = 0.0;        // == predicted accuracy eta_S
  double detection_probability = 0.0;  // P_M[X >= k]
  double predicted_accuracy = 0.0;     // Eq. 5
  int ms = 0;
};

// Requires params.window_periods > params.Ms() (the paper's general case).
SApproachResult SApproachAnalyze(const SystemParams& params,
                                 const SApproachOptions& options = {});

// Exact (uncapped) distribution of reports over the M-period window under
// the paper's spatial model; TotalMass() == 1.
Pmf SApproachExactDistribution(const SystemParams& params,
                               double node_reliability = 1.0);

// P_M[X >= k] from the exact distribution, read from its saturated power
// cut at k + 1 bins and divided by that cut pmf's total, so the result
// lies in [0, 1]. Costs O(k^2 log N).
double SApproachExactDetectionProbability(const SystemParams& params,
                                          int k = -1,
                                          double node_reliability = 1.0);

// Smallest G meeting `accuracy` per Eq. 5.
int SApproachRequiredCap(const SystemParams& params, double accuracy);

// The paper's cost model for the capped S-approach, ~ ms^(2G) elementary
// operations (Section 3.4.5). Returned as a double because it overflows
// integer ranges precisely in the regimes the paper calls infeasible.
double SApproachCostModel(int ms, int cap);

}  // namespace sparsedet
