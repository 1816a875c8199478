#include "opt/spec.h"

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "engine/request.h"

namespace sparsedet::opt {

// Everything here is reachable from an untrusted {"cmd":"optimize"} or
// {"cmd":"adapt"} network request, so the axis must be provably small
// *before* any vector is materialized: endpoints bounded, the step
// guaranteed to advance the iterate in double precision (a sub-ulp step
// would loop forever), and the closed-form count checked against the grid
// cap.
AxisSpec ParseAxis(const engine::FieldReader& search, const std::string& name,
                   bool integer) {
  AxisSpec axis;
  const std::optional<engine::FieldReader> r =
      search.Section(name, {"from", "to", "step"});
  if (!r.has_value()) return axis;
  axis.set = true;
  axis.from = r->RequiredNumber("from");
  axis.to = r->RequiredNumber("to");
  axis.step = r->Number("step", 1.0);
  if (!std::isfinite(axis.from) || std::abs(axis.from) > 1e9) {
    r->FailKey("from", "expected finite in [-1e9, 1e9]");
  }
  if (!std::isfinite(axis.to) || std::abs(axis.to) > 1e9) {
    r->FailKey("to", "expected finite in [-1e9, 1e9]");
  }
  if (!std::isfinite(axis.step) || !(axis.step > 0.0)) {
    r->FailKey("step", "expected > 0");
  }
  if (axis.to < axis.from) r->FailKey("to", "expected >= from");
  if (integer) {
    if (axis.from != std::floor(axis.from)) {
      r->FailKey("from", "expected an integer");
    }
    if (axis.step != std::floor(axis.step)) {
      r->FailKey("step", "expected an integer");
    }
  }
  if (axis.from + axis.step == axis.from ||
      axis.to + axis.step == axis.to) {
    r->FailKey("step", "too small to advance the axis at this magnitude");
  }
  if (axis.Count() > kMaxGridCandidates) {
    std::ostringstream os;
    os << "axis expands to more than " << kMaxGridCandidates << " values";
    r->FailKey("step", os.str());
  }
  return axis;
}

JsonValue AxisToJson(const AxisSpec& axis) {
  JsonValue json = JsonValue::Object();
  json.Set("from", axis.from).Set("to", axis.to).Set("step", axis.step);
  return json;
}

std::string ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kMinNodes:
      return "min_nodes";
    case Objective::kMinEnergy:
      return "min_energy";
    case Objective::kMaxDetection:
      return "max_detection";
  }
  return "?";
}

std::string SearchModeName(SearchMode mode) {
  return mode == SearchMode::kFrontier ? "frontier" : "optimize";
}

std::size_t AxisSpec::Count() const {
  if (!set) return 1;
  // Closed form of the Values() loop count (largest i with
  // from + i * step <= to + 1e-9), so grid-size checks never materialize
  // the axis.
  const double count = std::floor((to - from + 1e-9) / step) + 1.0;
  if (!(count >= 1.0)) return 1;
  constexpr double kSizeMax =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (count >= kSizeMax) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(count);
}

std::vector<double> AxisSpec::Values() const {
  std::vector<double> values;
  if (!set) return values;
  // The sweep grid's inclusive-upper-bound epsilon, so an optimizer axis
  // and an engine sweep over the same range enumerate identical points.
  for (double v = from; v <= to + 1e-9; v += step) {
    values.push_back(v);
    // Defense in depth behind the ParseAxis closed-form cap: an axis built
    // outside the parser must still never allocate unbounded memory or
    // spin on a step too small to advance v.
    if (values.size() > kMaxGridCandidates) {
      throw InvalidArgument("axis expands to too many values");
    }
  }
  return values;
}

std::size_t OptimizeSpec::GridSize() const {
  // Saturating product: five axes each at the per-axis cap would overflow
  // a naive size_t multiply.
  std::size_t total = 1;
  for (std::size_t count : {nodes.Count(), k.Count(), window.Count(),
                            period.Count(), duty.Count()}) {
    if (total > std::numeric_limits<std::size_t>::max() / count) {
      return std::numeric_limits<std::size_t>::max();
    }
    total *= count;
  }
  return total;
}

OptimizeSpec ParseOptimizeSpec(const JsonValue& json) {
  if (!json.is_object()) {
    throw InvalidArgument("optimize spec must be a JSON object");
  }
  const engine::FieldReader r(
      json, "spec", "",
      {"objective", "mode", "constraints", "search", "params", "options",
       "energy", "refine_rounds", "deadline_ms"});

  OptimizeSpec spec;
  const std::string objective = r.String("objective", "min_nodes");
  if (objective == "min_nodes") {
    spec.objective = Objective::kMinNodes;
  } else if (objective == "min_energy") {
    spec.objective = Objective::kMinEnergy;
  } else if (objective == "max_detection") {
    spec.objective = Objective::kMaxDetection;
  } else {
    r.FailKey("objective",
              "expected \"min_nodes\", \"min_energy\" or \"max_detection\"");
  }
  const std::string mode = r.String("mode", "optimize");
  if (mode == "optimize") {
    spec.mode = SearchMode::kOptimize;
  } else if (mode == "frontier") {
    spec.mode = SearchMode::kFrontier;
  } else {
    r.FailKey("mode", "expected \"optimize\" or \"frontier\"");
  }

  if (const auto c = r.Section("constraints", {"min_detection", "pf", "max_fa",
                                               "min_lifetime_days"})) {
    spec.min_detection = c->Number("min_detection", spec.min_detection);
    spec.pf = c->Number("pf", spec.pf);
    spec.max_fa = c->Number("max_fa", spec.max_fa);
    spec.min_lifetime_days =
        c->Number("min_lifetime_days", spec.min_lifetime_days);
    if (spec.min_detection < 0.0 || spec.min_detection > 1.0) {
      c->FailKey("min_detection", "expected in [0, 1]");
    }
    if (spec.pf < 0.0 || spec.pf > 1.0) c->FailKey("pf", "expected in [0, 1]");
    if (spec.max_fa < 0.0 || spec.max_fa > 1.0) {
      c->FailKey("max_fa", "expected in [0, 1]");
    }
    if (spec.min_lifetime_days < 0.0) {
      c->FailKey("min_lifetime_days", "expected >= 0");
    }
  }

  if (const auto search =
          r.Section("search", {"nodes", "k", "window", "period", "duty"})) {
    spec.nodes = ParseAxis(*search, "nodes", /*integer=*/true);
    if (spec.nodes.set && spec.nodes.from < 1.0) {
      search->FailKey("nodes.from", "expected >= 1");
    }
    spec.k = ParseAxis(*search, "k", /*integer=*/true);
    if (spec.k.set && spec.k.from < 1.0) {
      search->FailKey("k.from", "expected >= 1");
    }
    spec.window = ParseAxis(*search, "window", /*integer=*/true);
    if (spec.window.set && spec.window.from < 1.0) {
      search->FailKey("window.from", "expected >= 1");
    }
    spec.period = ParseAxis(*search, "period", /*integer=*/false);
    if (spec.period.set && !(spec.period.from > 0.0)) {
      search->FailKey("period.from", "expected > 0");
    }
    spec.duty = ParseAxis(*search, "duty", /*integer=*/false);
    if (spec.duty.set && !(spec.duty.from > 0.0)) {
      search->FailKey("duty.from", "expected > 0");
    }
    if (spec.duty.set && spec.duty.to > 1.0) {
      search->FailKey("duty.to", "expected <= 1");
    }
  }

  if (const JsonValue* params = r.Object("params")) {
    spec.params = engine::ParseParamsSection(*params);
  }
  if (const JsonValue* options = r.Object("options")) {
    spec.options = engine::ParseOptionsSection(*options);
  }

  if (const auto e = r.Section("energy", {"battery", "sense", "idle", "tx",
                                          "rx", "hops"})) {
    spec.energy.battery_joules =
        e->Number("battery", spec.energy.battery_joules);
    spec.energy.sense_cost_per_period =
        e->Number("sense", spec.energy.sense_cost_per_period);
    spec.energy.idle_cost_per_period =
        e->Number("idle", spec.energy.idle_cost_per_period);
    spec.energy.tx_cost_per_report_hop =
        e->Number("tx", spec.energy.tx_cost_per_report_hop);
    spec.energy.rx_cost_per_report_hop =
        e->Number("rx", spec.energy.rx_cost_per_report_hop);
    spec.mean_hops = e->Number("hops", spec.mean_hops);
    spec.energy.Validate();
    if (!(spec.mean_hops >= 0.0)) e->FailKey("hops", "expected >= 0");
  }

  spec.refine_rounds = r.Int("refine_rounds", spec.refine_rounds);
  if (spec.refine_rounds < 0 || spec.refine_rounds > 16) {
    r.FailKey("refine_rounds", "expected in [0, 16]");
  }
  spec.deadline_ms = r.NonNegativeInt("deadline_ms", spec.deadline_ms);

  if (spec.GridSize() > kMaxGridCandidates) {
    std::ostringstream os;
    os << "spec field \"search\": grid has " << spec.GridSize()
       << " candidates, max " << kMaxGridCandidates;
    throw InvalidArgument(os.str());
  }
  // The fixed scenario must itself be valid; per-candidate overrides are
  // re-validated (and invalid combinations dropped) during enumeration.
  spec.params.Validate();
  return spec;
}

JsonValue SpecToJson(const OptimizeSpec& spec) {
  JsonValue constraints = JsonValue::Object();
  constraints.Set("min_detection", spec.min_detection)
      .Set("pf", spec.pf)
      .Set("max_fa", spec.max_fa)
      .Set("min_lifetime_days", spec.min_lifetime_days);

  JsonValue search = JsonValue::Object();
  if (spec.nodes.set) search.Set("nodes", AxisToJson(spec.nodes));
  if (spec.k.set) search.Set("k", AxisToJson(spec.k));
  if (spec.window.set) search.Set("window", AxisToJson(spec.window));
  if (spec.period.set) search.Set("period", AxisToJson(spec.period));
  if (spec.duty.set) search.Set("duty", AxisToJson(spec.duty));

  JsonValue energy = JsonValue::Object();
  energy.Set("battery", spec.energy.battery_joules)
      .Set("sense", spec.energy.sense_cost_per_period)
      .Set("idle", spec.energy.idle_cost_per_period)
      .Set("tx", spec.energy.tx_cost_per_report_hop)
      .Set("rx", spec.energy.rx_cost_per_report_hop)
      .Set("hops", spec.mean_hops);

  JsonValue json = JsonValue::Object();
  json.Set("objective", ObjectiveName(spec.objective))
      .Set("mode", SearchModeName(spec.mode))
      .Set("constraints", std::move(constraints))
      .Set("search", std::move(search))
      .Set("params", engine::ParamsToJson(spec.params))
      .Set("options", engine::OptionsToJson(spec.options))
      .Set("energy", std::move(energy))
      .Set("refine_rounds", spec.refine_rounds)
      .Set("deadline_ms", spec.deadline_ms);
  return json;
}

bool CandidateLess(const Candidate& a, const Candidate& b) {
  if (a.nodes != b.nodes) return a.nodes < b.nodes;
  if (a.k != b.k) return a.k < b.k;
  if (a.window != b.window) return a.window < b.window;
  if (a.period != b.period) return a.period < b.period;
  return a.duty < b.duty;
}

std::string CandidateKey(const Candidate& c) {
  // Bit-exact doubles: two candidates share a key only when they are the
  // same grid point, the memo-cache keying discipline.
  std::ostringstream os;
  os << c.nodes << '|' << c.k << '|' << c.window << '|'
     << std::bit_cast<std::uint64_t>(c.period) << '|'
     << std::bit_cast<std::uint64_t>(c.duty);
  return os.str();
}

SystemParams CandidateParams(const OptimizeSpec& spec, const Candidate& c) {
  SystemParams p = spec.params;
  p.num_nodes = c.nodes;
  p.threshold_reports = c.k;
  p.window_periods = c.window;
  p.period_length = c.period;
  // E20 duty-cycling equivalence: an awake fraction d is analytically a
  // per-period report probability of d * Pd.
  p.detect_prob = spec.params.detect_prob * c.duty;
  return p;
}

std::vector<Candidate> CoarseGrid(const OptimizeSpec& spec,
                                  std::size_t* invalid) {
  const std::vector<double> nodes =
      spec.nodes.set ? spec.nodes.Values()
                     : std::vector<double>{
                           static_cast<double>(spec.params.num_nodes)};
  const std::vector<double> ks =
      spec.k.set ? spec.k.Values()
                 : std::vector<double>{
                       static_cast<double>(spec.params.threshold_reports)};
  const std::vector<double> windows =
      spec.window.set ? spec.window.Values()
                      : std::vector<double>{
                            static_cast<double>(spec.params.window_periods)};
  const std::vector<double> periods =
      spec.period.set ? spec.period.Values()
                      : std::vector<double>{spec.params.period_length};
  const std::vector<double> duties =
      spec.duty.set ? spec.duty.Values() : std::vector<double>{1.0};

  std::size_t dropped = 0;
  std::vector<Candidate> grid;
  grid.reserve(nodes.size() * ks.size() * windows.size() * periods.size() *
               duties.size());
  for (double n : nodes) {
    for (double k : ks) {
      for (double m : windows) {
        for (double t : periods) {
          for (double d : duties) {
            Candidate c;
            c.nodes = static_cast<int>(n);
            c.k = static_cast<int>(k);
            c.window = static_cast<int>(m);
            c.period = t;
            c.duty = d > 1.0 ? 1.0 : d;
            try {
              CandidateParams(spec, c).Validate();
            } catch (const Error&) {
              ++dropped;
              continue;
            }
            grid.push_back(c);
          }
        }
      }
    }
  }
  if (invalid != nullptr) *invalid = dropped;
  return grid;
}

}  // namespace sparsedet::opt
