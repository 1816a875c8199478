// One Monte-Carlo trial: deploy sensors, move a target for M periods,
// generate detection reports (paper Section 4, "Simulation Configuration").
#pragma once

#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/params.h"
#include "geometry/field.h"
#include "sim/motion.h"
#include "sim/sensing.h"

namespace sparsedet {

// A node-level detection report as the base station would receive it.
struct SimReport {
  int period = 0;  // sensing period index, 0-based
  int node = 0;    // reporting node id
  Vec2 node_pos;   // the node's (known) position
  bool is_false_alarm = false;
};

// How sensor-to-track distances treat the field boundary.
//
// The paper's analysis is boundary-free: every sensor sees the full
// Detectable Region area no matter where the track runs. kToroidal
// realizes exactly that (the field wraps, so a track leaving one edge
// re-enters the opposite one), which is why it is the default and why the
// analysis-vs-simulation experiments match the paper. kPlanar keeps the
// field as a plain rectangle — tracks can exit into sensor-free space, and
// the measured detection probability drops below the analysis near the
// borders; experiment E12 quantifies that gap.
enum class SensingGeometry {
  kToroidal,
  kPlanar,
};

struct TrialConfig {
  SystemParams params;
  // Non-owning; must outlive the calls. Defaults (null) mean: straight-line
  // motion with kUnbounded boundary and disk sensing from `params`.
  const MotionModel* motion = nullptr;
  const SensingModel* sensing = nullptr;
  SensingGeometry geometry = SensingGeometry::kToroidal;
  // Per-node per-period false-positive probability.
  double false_alarm_prob = 0.0;
  // Probability that a node is functional for the whole window (failure
  // injection; 1.0 = the paper's model). Dead nodes generate neither
  // detections nor false alarms.
  double node_reliability = 1.0;
  // Duty cycling (cf. the node-scheduling literature the paper contrasts
  // with): each node is awake in each period independently with this
  // probability; asleep nodes neither sense nor false-alarm that period.
  // Analytically equivalent to scaling Pd and pf by the duty cycle.
  double duty_cycle = 1.0;
  // Per-period node death process: at the start of each period every node
  // still alive dies independently with this probability and stays dead
  // for the rest of the window (battery exhaustion / destruction). 0 = off
  // (the paper's model). Composes with node_reliability, which kills a
  // node for the whole window up front.
  double node_death_prob = 0.0;
  // I.i.d. report transport loss: each generated report (true or false
  // alarm) is dropped before reaching the base station with this
  // probability. 0 = off.
  double report_loss_prob = 0.0;
};

struct TrialResult {
  std::vector<SimReport> reports;       // ordered by period
  std::vector<bool> node_alive;         // failure-injection outcome per node
  // Per-node period at whose start the node died (M = survived the whole
  // window). Empty when node_death_prob == 0 — the death process draws no
  // randomness then, keeping existing seeds reproducible.
  std::vector<int> death_period;
  std::vector<int> true_reports_per_period;  // size M
  int total_true_reports = 0;
  int distinct_true_nodes = 0;
  int lost_reports = 0;  // reports dropped by report_loss_prob
  std::vector<Vec2> node_positions;
  std::vector<Vec2> target_path;  // M + 1 period-boundary positions
};

// Detection probability of `sensor` against one period's path segment,
// honoring the trial's sensing geometry. For the toroidal geometry the
// segment is translated so its start lies inside the field and the sensor
// is tested at its nine wrap images; valid while a period's segment is
// shorter than the field (checked in debug builds), which holds for every
// scenario in the paper by orders of magnitude. Single- and multi-target
// trials share it.
double GeometryAwareProbability(const SensingModel& sensing, Vec2 sensor,
                                const Segment& segment,
                                SensingGeometry geometry, const Field& field);

// Runs a single trial with randomness drawn from `rng`.
TrialResult RunTrial(const TrialConfig& config, Rng& rng);

// Runs a trial with no target present (false alarms only). Used by the
// system-level false-alarm experiments. Requires false_alarm_prob > 0 to
// be meaningful, though 0 is accepted.
TrialResult RunNoTargetTrial(const TrialConfig& config, Rng& rng);

}  // namespace sparsedet
