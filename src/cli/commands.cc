#include "cli/commands.h"

#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "adapt/adapt.h"
#include "adapt/spec.h"
#include "cli/flags.h"
#include "common/framing.h"
#include "server/optimize_exec.h"
#include "server/tcp_server.h"
#include "common/check.h"
#include "common/json.h"
#include "common/table.h"
#include "common/error.h"
#include "core/analysis.h"
#include "core/false_alarm_model.h"
#include "core/latency.h"
#include "core/ms_approach.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "obs/log.h"
#include "opt/backend.h"
#include "opt/optimizer.h"
#include "opt/spec.h"
#include "obs/metrics.h"
#include "sim/trace_io.h"
#include "detect/system_fa.h"
#include "sim/monte_carlo.h"

namespace sparsedet::cli {
namespace {

std::vector<const char*> ToArgv(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  return argv;
}

// Scenario flags shared by every subcommand.
SystemParams ParseScenario(FlagParser& flags) {
  SystemParams p = SystemParams::OnrDefaults();
  p.field_width = flags.GetDouble("field-width", p.field_width,
                                  "field width in meters");
  p.field_height = flags.GetDouble("field-height", p.field_height,
                                   "field height in meters");
  p.num_nodes = flags.GetInt("nodes", p.num_nodes, "number of sensor nodes");
  p.sensing_range =
      flags.GetDouble("rs", p.sensing_range, "sensing range Rs in meters");
  p.comm_range = flags.GetDouble("rc", p.comm_range,
                                 "communication range in meters");
  p.detect_prob =
      flags.GetDouble("pd", p.detect_prob, "in-range detection probability");
  p.period_length =
      flags.GetDouble("period", p.period_length, "sensing period t in s");
  p.target_speed =
      flags.GetDouble("speed", p.target_speed, "target speed V in m/s");
  p.window_periods = flags.GetInt("window", p.window_periods,
                                  "decision window M in periods");
  p.threshold_reports =
      flags.GetInt("k", p.threshold_reports, "reports required within M");
  return p;
}

MsApproachOptions ParseMsOptions(FlagParser& flags) {
  MsApproachOptions opt;
  opt.gh = flags.GetInt("gh", opt.gh, "Head-stage sensor cap");
  opt.g = flags.GetInt("g", opt.g, "Body/Tail-stage sensor cap");
  opt.normalize =
      flags.GetBool("normalize", opt.normalize, "apply Eq. 13 normalization");
  opt.node_reliability = flags.GetDouble(
      "reliability", opt.node_reliability, "node survival probability");
  return opt;
}

// Engine flags shared by batch / serve / serve-tcp, so the three
// front-ends cannot drift apart in what they accept.
engine::EngineOptions ParseEngineOptions(FlagParser& flags) {
  engine::EngineOptions options;
  options.threads = static_cast<std::size_t>(
      flags.GetInt("threads", 0, "worker threads (0 = hardware)"));
  options.cache_capacity = static_cast<std::size_t>(flags.GetInt(
      "cache-capacity", 4096, "LRU result-cache entries (0 disables)"));
  options.solver_threads = static_cast<std::size_t>(flags.GetInt(
      "solver-threads", 1,
      "Monte-Carlo trial-batch width per unit (0 = hardware)"));
  options.memo_cache_entries = static_cast<std::size_t>(flags.GetInt(
      "memo-cache-entries", 4096,
      "solver memo-cache entries shared across requests (0 disables)"));
  options.trace = flags.GetBool(
      "trace", false, "attach a \"trace\" span object to response lines");
  options.trace_file = flags.GetString(
      "trace-file", "", "write one span JSON line per request to this file");
  options.max_queue = static_cast<std::size_t>(flags.GetInt(
      "max-queue", 0, "reject requests past this pool backlog (0 = off)"));
  options.max_line_bytes = static_cast<std::size_t>(flags.GetInt(
      "max-line-bytes", 1 << 20, "reject longer input lines (0 = off)"));
  options.retry.max_attempts = flags.GetInt(
      "retry-max", 3, "attempts per unit under transient faults");
  options.retry.base_delay_ms = flags.GetInt(
      "retry-base-ms", 1, "base backoff delay between retries");
  options.watchdog_stuck_ms = flags.GetInt(
      "watchdog-stuck-ms", 0, "cancel units stuck longer (0 = off)");
  options.fault_config = flags.GetString(
      "fault-inject", "", "FaultInjector JSON config (testing)");
  options.slo.availability = flags.GetDouble(
      "slo-availability", 0.0,
      "availability objective, e.g. 0.999 (0 = no availability SLO)");
  options.slo.p99_ms = flags.GetInt(
      "slo-p99-ms", 0, "p99 latency objective in ms (0 = no latency SLO)");
  options.slo.window_s = flags.GetInt(
      "slo-window-s", 300, "rolling SLO window in seconds");
  return options;
}

// Structured-log flags shared by the long-running front-ends. Configures
// the process-wide logger; with no flags given this re-applies the
// defaults (stderr, info, 50 lines per event per second).
void ConfigureLogging(FlagParser& flags) {
  obs::LogOptions log;
  log.path = flags.GetString(
      "log-file", "", "structured JSONL log file (empty = stderr)");
  const std::string level = flags.GetString(
      "log-level", "info", "minimum log level: debug|info|warn|error");
  SPARSEDET_REQUIRE(obs::ParseLogLevel(level, &log.min_level),
                    "--log-level must be debug, info, warn or error");
  log.max_per_key_per_sec = static_cast<std::uint64_t>(flags.GetInt(
      "log-rate-limit", 50,
      "max lines per (component, event) per second (0 = unlimited)"));
  obs::StructuredLog::Global().Configure(log);
}

// One optimizer search axis as a "from:to[:step]" flag (step defaults to
// 1). An absent flag leaves the axis unset: fixed at the scenario value.
opt::AxisSpec ParseAxisFlag(FlagParser& flags, const std::string& name,
                            const std::string& help) {
  const std::string text = flags.GetString(name, "", help);
  opt::AxisSpec axis;
  if (text.empty()) return axis;
  std::vector<double> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    const std::string piece =
        colon == std::string::npos ? text.substr(start)
                                   : text.substr(start, colon - start);
    std::size_t used = 0;
    double value = 0.0;
    bool ok = !piece.empty();
    if (ok) {
      try {
        value = std::stod(piece, &used);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    SPARSEDET_REQUIRE(ok && used == piece.size(),
                      "--" + name + " must be from:to[:step], got \"" + text +
                          "\"");
    parts.push_back(value);
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  SPARSEDET_REQUIRE(parts.size() == 2 || parts.size() == 3,
                    "--" + name + " must be from:to[:step], got \"" + text +
                        "\"");
  axis.set = true;
  axis.from = parts[0];
  axis.to = parts[1];
  axis.step = parts.size() == 3 ? parts[2] : 1.0;
  return axis;
}

// The flags every spec-driven command (optimize, adapt) ends with; reading
// them finishes the parse. Every flag declared before them builds the spec.
struct SpecRunFlags {
  std::vector<std::string> spec_flags;  // provided spec-building flags
  std::string spec_path;
  int deadline_ms = 0;
  engine::EngineOptions options;
};

SpecRunFlags ParseSpecRunFlags(FlagParser& flags, const std::string& command) {
  SpecRunFlags run;
  run.spec_flags = flags.ProvidedSoFar();
  run.spec_path = flags.GetString(
      "spec", "", command + " spec JSON file (replaces spec-building flags)");
  run.deadline_ms = flags.GetInt(
      "deadline-ms", 0,
      "wall-clock budget; expiry yields a degraded partial result");
  run.options = ParseEngineOptions(flags);
  flags.Finish();
  return run;
}

// The runner behind optimize and adapt. The spec comes from --spec, which
// conflicts with every spec-building flag (only --deadline-ms may override
// it), or from the flags, re-parsed through the canonical JSON so both
// paths get exactly the file-spec validation.
// `solve` runs on a private engine behind a SyncEngineBackend, and the
// result is printed rows-then-summary. Degraded (deadline) partials exit
// 0 — the result says so; a run that finished with its `goal_key` false or
// 0 (no feasible candidate, floor not held) exits 1.
template <typename Spec>
int RunSpecCommand(
    const FlagParser& flags, const SpecRunFlags& run, Spec spec,
    Spec (*parse)(const JsonValue&), JsonValue (*to_json)(const Spec&),
    const std::function<JsonValue(const Spec&, opt::SolveBackend&,
                                  obs::MetricsRegistry*)>& solve,
    const std::string& rows_key, const std::string& goal_key,
    std::ostream& out) {
  spec.deadline_ms = run.deadline_ms;
  Spec parsed;
  if (!run.spec_path.empty()) {
    SPARSEDET_REQUIRE(run.spec_flags.empty(),
                      "--" + run.spec_flags.front() +
                          " conflicts with --spec (the file is the whole "
                          "spec)");
    std::ifstream file(run.spec_path);
    SPARSEDET_REQUIRE(file.good(), "cannot open --spec " + run.spec_path);
    std::ostringstream text;
    text << file.rdbuf();
    parsed = parse(ParseJson(text.str()));
    if (flags.Provided("deadline-ms")) {
      SPARSEDET_REQUIRE(run.deadline_ms >= 0, "--deadline-ms must be >= 0");
      parsed.deadline_ms = run.deadline_ms;
    }
  } else {
    parsed = parse(to_json(spec));
  }

  engine::BatchEngine batch_engine(run.options);
  opt::SyncEngineBackend backend(batch_engine);
  const JsonValue result = solve(parsed, backend, &batch_engine.registry());
  opt::WriteRowsThenSummary(result, rows_key, out);
  out.flush();

  const JsonValue* goal = result.Find(goal_key);
  const JsonValue* degraded = result.Find("degraded");
  const bool missed = goal != nullptr && (goal->is_bool()
                                              ? !goal->AsBool()
                                              : goal->AsDouble() == 0.0);
  return missed && degraded != nullptr && !degraded->AsBool() ? 1 : 0;
}

// SIGTERM/SIGINT target for serve-tcp. RequestDrain() is async-signal-safe
// (a single eventfd write), so this handler is too.
server::TcpServer* g_drain_target = nullptr;

void HandleDrainSignal(int) {
  if (g_drain_target != nullptr) g_drain_target->RequestDrain();
}

int Guard(std::ostream& out, std::ostream& err,
          const std::function<int()>& body) {
  try {
    return body();
  } catch (const HelpRequested& help) {
    out << help.usage();
    return 0;
  } catch (const InvalidArgument& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "internal error: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace

int CmdAnalyze(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    const SystemParams params = ParseScenario(flags);
    const MsApproachOptions options = ParseMsOptions(flags);
    const std::string format =
        flags.GetString("format", "text", "output format: text | json");
    flags.Finish();
    SPARSEDET_REQUIRE(format == "text" || format == "json",
                      "--format must be text or json");
    const ScenarioReport report = AnalyzeScenario(params, options);
    if (format == "json") {
      out << engine::AnalyzeToJson(params, report).ToString() << "\n";
    } else {
      out << report.Summary();
    }
    return 0;
  });
}

int CmdSimulate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    engine::WorkUnit unit;
    unit.op = engine::RequestOp::kSimulate;
    unit.params = ParseScenario(flags);
    engine::SimulateSpec& sim = unit.sim;
    sim.trials = flags.GetInt("trials", 10000, "Monte-Carlo trials");
    sim.seed = static_cast<std::uint64_t>(
        flags.GetInt("seed", 20080617, "base RNG seed"));
    sim.false_alarm_prob = flags.GetDouble(
        "pf", 0.0, "per-node per-period false alarm probability");
    sim.node_reliability =
        flags.GetDouble("reliability", 1.0, "node survival probability");
    sim.motion = flags.GetString("motion", "straight",
                                 "target motion: straight | random-walk");
    sim.geometry = flags.GetString("geometry", "toroidal",
                                   "sensing geometry: toroidal | planar");
    sim.distinct_nodes =
        flags.GetInt("h", 1, "distinct reporting nodes required (>= 1)");
    const std::string format =
        flags.GetString("format", "text", "output format: text | json");
    flags.Finish();
    SPARSEDET_REQUIRE(format == "text" || format == "json",
                      "--format must be text or json");
    SPARSEDET_REQUIRE(sim.geometry == "planar" || sim.geometry == "toroidal",
                      "--geometry must be toroidal or planar");
    SPARSEDET_REQUIRE(sim.motion == "straight" || sim.motion == "random-walk",
                      "--motion must be straight or random-walk");

    const JsonValue est = engine::EvaluateUnit(unit);
    if (format == "json") {
      out << est.ToString() << "\n";
    } else {
      const auto field = [&](const char* key) {
        return est.Find(key)->AsDouble();
      };
      out << "trials            : "
          << static_cast<std::int64_t>(field("trials")) << "\n"
          << "detections        : "
          << static_cast<std::int64_t>(field("detections")) << "\n"
          << "P[detect]         : " << field("detection_probability") << "\n"
          << "95% Wilson CI     : [" << field("ci_lo") << ", "
          << field("ci_hi") << "]\n";
    }
    return 0;
  });
}

int CmdPlan(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    SystemParams params = ParseScenario(flags);
    const double target = flags.GetDouble(
        "target-detection", 0.9, "required detection probability");
    const double pf = flags.GetDouble(
        "pf", 0.0, "per-node per-period false alarm probability");
    const double max_fa = flags.GetDouble(
        "max-fa", 0.01, "max system false alarm probability per window");
    const int max_nodes =
        flags.GetInt("max-nodes", 500, "largest fleet to consider");
    flags.Finish();
    SPARSEDET_REQUIRE(target > 0.0 && target < 1.0,
                      "--target-detection must be in (0, 1)");

    // Step 1: threshold k from the FA requirement (count-only bound at the
    // largest candidate fleet).
    if (pf > 0.0) {
      params.num_nodes = max_nodes;
      params.threshold_reports = MinimumThresholdForFaRate(params, pf, max_fa);
      out << "k = " << params.threshold_reports
          << " (bounds count-only P_sysFA <= " << max_fa << " at pf = " << pf
          << ")\n";
    } else {
      out << "k = " << params.threshold_reports << " (no FA requirement)\n";
    }

    // Step 2: smallest fleet meeting the detection target.
    for (int nodes = 20; nodes <= max_nodes; nodes += 10) {
      params.num_nodes = nodes;
      if (params.threshold_reports > nodes * params.window_periods) continue;
      const double detect =
          MsApproachAnalyze(params).detection_probability;
      if (detect >= target) {
        out << "N = " << nodes << " sensors reach P[detect] = " << detect
            << " >= " << target << "\n";
        return 0;
      }
    }
    out << "no fleet up to " << max_nodes << " nodes reaches " << target
        << "\n";
    return 1;
  });
}

int CmdFa(const std::vector<std::string>& args, std::ostream& out,
          std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    SystemParams params = ParseScenario(flags);
    const double pf = flags.GetDouble(
        "pf", 1e-3, "per-node per-period false alarm probability");
    const int trials =
        flags.GetInt("trials", 10000, "no-target windows to simulate");
    const int max_k = flags.GetInt("max-k", 8, "largest k to tabulate");
    flags.Finish();

    out << "expected false reports per window: "
        << ExpectedFalseReportsPerWindow(params, pf) << "\n";
    out << "k  count-only  track-gated\n";
    for (int k = 1; k <= max_k; ++k) {
      params.threshold_reports = k;
      SystemFaOptions opt;
      opt.trials = trials;
      const SystemFaEstimate est = EstimateSystemFaProbability(params, pf, opt);
      out << k << "  " << CountOnlySystemFaProbability(params, pf) << "  "
          << est.gated.point << "\n";
    }
    return 0;
  });
}

int CmdSweep(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    const SystemParams base = ParseScenario(flags);
    const MsApproachOptions options = ParseMsOptions(flags);
    const std::string param = flags.GetString(
        "param", "nodes",
        "parameter to sweep: nodes | speed | k | window | rs | pd");
    const double from = flags.GetDouble("from", 60.0, "sweep start");
    const double to = flags.GetDouble("to", 240.0, "sweep end (inclusive)");
    const double step = flags.GetDouble("step", 20.0, "sweep step");
    const int trials = flags.GetInt(
        "trials", 0, "Monte-Carlo trials per point (0 = analysis only)");
    const std::string csv =
        flags.GetString("csv", "", "optional CSV output path");
    flags.Finish();
    SPARSEDET_REQUIRE(step > 0.0, "--step must be positive");
    SPARSEDET_REQUIRE(to >= from, "--to must be >= --from");
    SPARSEDET_REQUIRE(engine::IsSweepParam(param),
                      "unknown --param: " + param);
    // The engine's grid, so the CLI shares its point cap (which also stops
    // a step too small to advance the value).
    const std::vector<double> values =
        engine::SweepValues(engine::SweepSpec{param, from, to, step});

    std::vector<std::string> columns{param, "analysis"};
    if (trials > 0) columns.push_back("simulation");
    Table table(columns);
    for (double value : values) {
      SystemParams p = base;
      engine::ApplySweepValue(p, param, value);
      table.BeginRow();
      table.AddNumber(value, param == "pd" ? 3 : 0);
      table.AddNumber(MsApproachAnalyze(p, options).detection_probability,
                      4);
      if (trials > 0) {
        TrialConfig config;
        config.params = p;
        MonteCarloOptions mc;
        mc.trials = trials;
        table.AddNumber(EstimateDetectionProbability(config, mc).point, 4);
      }
    }
    table.PrintText(out);
    if (!csv.empty()) {
      SPARSEDET_REQUIRE(table.WriteCsvFile(csv),
                        "cannot write CSV to " + csv);
      out << "csv written to " << csv << "\n";
    }
    return 0;
  });
}

int CmdLatency(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    const SystemParams params = ParseScenario(flags);
    const MsApproachOptions options = ParseMsOptions(flags);
    flags.Finish();
    const LatencyDistribution latency = DetectionLatency(params, options);
    out << "P[detected within L periods]:\n";
    for (int l = latency.first_valid_prefix; l <= params.window_periods;
         ++l) {
      out << "  L = " << l << " : " << latency.CdfAt(l) << "\n";
    }
    out << "mean latency | detected : " << latency.MeanConditionalLatency()
        << " periods\n";
    out << "conditional 90th pct    : " << latency.ConditionalQuantile(0.9)
        << " periods\n";
    return 0;
  });
}

int CmdTrace(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    TrialConfig config;
    config.params = ParseScenario(flags);
    config.false_alarm_prob = flags.GetDouble(
        "pf", 0.0, "per-node per-period false alarm probability");
    const std::uint64_t seed = static_cast<std::uint64_t>(
        flags.GetInt("seed", 1, "trial RNG seed"));
    const std::string prefix =
        flags.GetString("prefix", "trial", "output CSV path prefix");
    flags.Finish();

    Rng rng(seed);
    const TrialResult trial = RunTrial(config, rng);
    const TraceFiles files = SaveTrialTrace(trial, prefix);
    out << "trial: " << trial.total_true_reports << " true reports from "
        << trial.distinct_true_nodes << " nodes\n"
        << "wrote " << files.nodes_path << ", " << files.path_path << ", "
        << files.reports_path << "\n";
    return 0;
  });
}

int CmdBatch(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    const std::string input = flags.GetString(
        "input", "-", "JSONL request file, or - for stdin");
    engine::EngineOptions options = ParseEngineOptions(flags);
    options.unordered = flags.GetBool(
        "unordered", false, "emit completions immediately, tagged by id");
    const int passes =
        flags.GetInt("passes", 1, "process the input this many times");
    const bool stats =
        flags.GetBool("stats", true, "emit a final {\"stats\":...} line");
    flags.Finish();
    SPARSEDET_REQUIRE(passes >= 1, "--passes must be >= 1");
    SPARSEDET_REQUIRE(input != "-" || passes == 1,
                      "--passes > 1 requires a seekable --input file");

    engine::BatchEngine batch_engine(options);
    for (int pass = 0; pass < passes; ++pass) {
      if (input == "-") {
        batch_engine.RunBatch(in, out);
      } else {
        std::ifstream file(input);
        SPARSEDET_REQUIRE(file.good(), "cannot open --input " + input);
        batch_engine.RunBatch(file, out);
      }
    }
    if (stats) batch_engine.WriteStatsLine(out);
    return 0;
  });
}

int CmdServe(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    engine::EngineOptions options = ParseEngineOptions(flags);
    const bool stats = flags.GetBool(
        "stats", false, "emit a {\"stats\":...} line at end of stream");
    flags.Finish();

    engine::BatchEngine batch_engine(options);
    // Long commands ({"cmd":"optimize"}, {"cmd":"adapt"}) run inline with
    // the serve engine as their inner-solve backend. The hook runs
    // synchronously between requests (the streaming loop holds no engine
    // state across lines), so the re-entrant RunBatch is safe.
    opt::SyncEngineBackend backend(batch_engine);
    batch_engine.SetCommandHook([&](const engine::InputLine& line) {
      const server::LongCommand* command = server::FindLongCommand(line.cmd);
      return command != nullptr ? command->handle(line.json, backend,
                                                  &batch_engine.registry(), {})
                                : server::UnknownCommandError();
    });
    if (&out == &std::cout) {
      // A real serving stdout must survive EINTR and partial write(2)s
      // (std::cout's streambuf silently drops the unwritten tail), so route
      // responses through the fd-level writer shared with the TCP server.
      std::signal(SIGPIPE, SIG_IGN);
      out.flush();
      framing::FdWriterBuf fd_buf(1);
      std::ostream fd_out(&fd_buf);
      batch_engine.Serve(in, fd_out);
      if (stats) batch_engine.WriteStatsLine(fd_out);
      fd_out.flush();
    } else {
      batch_engine.Serve(in, out);
      if (stats) batch_engine.WriteStatsLine(out);
    }
    return 0;
  });
}

int CmdOptimize(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);

    // Spec-building flags. All of them are consumed unconditionally (the
    // FlagParser contract), then rejected below if --spec names a file.
    opt::OptimizeSpec spec;
    spec.params = ParseScenario(flags);
    spec.options = ParseMsOptions(flags);
    const std::string objective = flags.GetString(
        "objective", "min_nodes",
        "optimization objective: min_nodes | min_energy | max_detection");
    const std::string mode = flags.GetString(
        "mode", "optimize", "search mode: optimize | frontier");
    spec.min_detection = flags.GetDouble(
        "min-detection", spec.min_detection,
        "feasibility floor on the window detection probability");
    spec.pf = flags.GetDouble(
        "pf", spec.pf, "per-node per-awake-period false alarm probability");
    spec.max_fa = flags.GetDouble(
        "max-fa", spec.max_fa,
        "cap on P[system false alarm per window] (1 = unconstrained)");
    spec.min_lifetime_days = flags.GetDouble(
        "min-lifetime-days", spec.min_lifetime_days,
        "feasibility floor on the battery lifetime");
    spec.nodes =
        ParseAxisFlag(flags, "search-nodes", "fleet-size axis from:to[:step]");
    spec.k = ParseAxisFlag(flags, "search-k", "threshold axis from:to[:step]");
    spec.window = ParseAxisFlag(flags, "search-window",
                                "decision-window axis from:to[:step]");
    spec.period = ParseAxisFlag(flags, "search-period",
                                "sensing-period axis from:to[:step]");
    spec.duty =
        ParseAxisFlag(flags, "search-duty", "duty-cycle axis from:to[:step]");
    spec.energy.battery_joules = flags.GetDouble(
        "battery", spec.energy.battery_joules, "battery budget in joules");
    spec.energy.sense_cost_per_period =
        flags.GetDouble("sense-cost", spec.energy.sense_cost_per_period,
                        "joules per awake sensing period");
    spec.energy.idle_cost_per_period = flags.GetDouble(
        "idle-cost", spec.energy.idle_cost_per_period,
        "joules per asleep period");
    spec.energy.tx_cost_per_report_hop = flags.GetDouble(
        "tx-cost", spec.energy.tx_cost_per_report_hop,
        "joules to transmit one report one hop");
    spec.energy.rx_cost_per_report_hop = flags.GetDouble(
        "rx-cost", spec.energy.rx_cost_per_report_hop,
        "joules to receive one report one hop");
    spec.mean_hops = flags.GetDouble(
        "hops", spec.mean_hops, "mean route length to the base station");
    spec.refine_rounds = flags.GetInt(
        "refine-rounds", spec.refine_rounds,
        "step-halving local refinement rounds after the coarse sweep");

    const SpecRunFlags run = ParseSpecRunFlags(flags, "optimize");

    if (objective == "min_nodes") {
      spec.objective = opt::Objective::kMinNodes;
    } else if (objective == "min_energy") {
      spec.objective = opt::Objective::kMinEnergy;
    } else if (objective == "max_detection") {
      spec.objective = opt::Objective::kMaxDetection;
    } else {
      throw InvalidArgument(
          "--objective must be min_nodes, min_energy or max_detection");
    }
    if (mode == "optimize") {
      spec.mode = opt::SearchMode::kOptimize;
    } else if (mode == "frontier") {
      spec.mode = opt::SearchMode::kFrontier;
    } else {
      throw InvalidArgument("--mode must be optimize or frontier");
    }
    return RunSpecCommand<opt::OptimizeSpec>(
        flags, run, spec, opt::ParseOptimizeSpec, opt::SpecToJson,
        [](const opt::OptimizeSpec& parsed, opt::SolveBackend& backend,
           obs::MetricsRegistry* registry) {
          return opt::Optimizer(parsed, backend, registry).Run();
        },
        "frontier", "feasible", out);
  });
}

int CmdAdapt(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);

    // Spec-building flags. All of them are consumed unconditionally (the
    // FlagParser contract), then rejected below if --spec names a file.
    adapt::AdaptSpec spec;
    spec.params = ParseScenario(flags);
    spec.options = ParseMsOptions(flags);
    const std::string mode = flags.GetString(
        "mode", "analyze", "adaptation mode: analyze | closed_loop");
    const std::string failure_model = flags.GetString(
        "failure-model", "exponential",
        "per-node lifetime family: exponential | weibull");
    spec.failure.mean_lifetime_s = flags.GetDouble(
        "mean-lifetime-s", spec.failure.mean_lifetime_s,
        "mean node lifetime in seconds (0 = immortal)");
    spec.failure.weibull_shape = flags.GetDouble(
        "shape", spec.failure.weibull_shape,
        "Weibull shape (1 = exponential; >1 wear-out)");
    spec.failure.report_loss_prob = flags.GetDouble(
        "report-loss", spec.failure.report_loss_prob,
        "i.i.d. report transport loss probability");
    spec.horizon_epochs = flags.GetInt(
        "horizon-epochs", spec.horizon_epochs,
        "adaptation epochs to run the controller for");
    spec.epoch_periods = flags.GetInt(
        "epoch-periods", spec.epoch_periods,
        "sensing periods per epoch (0 = one decision window)");
    spec.min_detection = flags.GetDouble(
        "min-detection", spec.min_detection,
        "detection floor the controller must hold");
    spec.pf = flags.GetDouble(
        "pf", spec.pf,
        "per-node per-period false alarm probability (and the quiescent "
        "report rate the estimator observes)");
    spec.max_fa = flags.GetDouble(
        "max-fa", spec.max_fa,
        "cap on P[system false alarm per window] (1 = unconstrained)");
    spec.k = ParseAxisFlag(flags, "search-k", "threshold axis from:to[:step]");
    spec.window = ParseAxisFlag(flags, "search-window",
                                "decision-window axis from:to[:step]");
    spec.margin = flags.GetDouble(
        "margin", spec.margin,
        "feasibility slack required before switching settings");
    spec.min_dwell_epochs = flags.GetInt(
        "min-dwell", spec.min_dwell_epochs,
        "epochs a feasible setting is held before switching");
    const std::string estimator = flags.GetString(
        "estimator", "oracle",
        "live-population source: oracle | reports");
    spec.estimator_windows = flags.GetInt(
        "estimator-windows", spec.estimator_windows,
        "epochs of report counts the estimator retains");
    spec.estimator_z = flags.GetDouble(
        "estimator-z", spec.estimator_z,
        "confidence multiplier for the population bounds");
    const double seed = flags.GetDouble(
        "seed", static_cast<double>(spec.sim_seed),
        "closed-loop trajectory / estimator / validation seed");
    spec.sim_trials = flags.GetInt(
        "trials", spec.sim_trials,
        "per-epoch Monte-Carlo validation trials (0 = skip)");

    const SpecRunFlags run = ParseSpecRunFlags(flags, "adapt");

    if (mode == "analyze") {
      spec.mode = adapt::AdaptMode::kAnalyze;
    } else if (mode == "closed_loop") {
      spec.mode = adapt::AdaptMode::kClosedLoop;
    } else {
      throw InvalidArgument("--mode must be analyze or closed_loop");
    }
    if (failure_model == "exponential") {
      spec.failure.kind = FailureKind::kExponential;
    } else if (failure_model == "weibull") {
      spec.failure.kind = FailureKind::kWeibull;
    } else {
      throw InvalidArgument(
          "--failure-model must be exponential or weibull");
    }
    if (estimator == "oracle") {
      spec.estimate_from_reports = false;
    } else if (estimator == "reports") {
      spec.estimate_from_reports = true;
    } else {
      throw InvalidArgument("--estimator must be oracle or reports");
    }
    SPARSEDET_REQUIRE(seed >= 0 && seed == std::floor(seed) && seed <= 9.0e15,
                      "--seed must be a non-negative integer");
    spec.sim_seed = static_cast<std::uint64_t>(seed);
    return RunSpecCommand<adapt::AdaptSpec>(
        flags, run, spec, adapt::ParseAdaptSpec, adapt::SpecToJson,
        [](const adapt::AdaptSpec& parsed, opt::SolveBackend& backend,
           obs::MetricsRegistry* registry) {
          return adapt::AdaptRun(parsed, backend, registry);
        },
        "epochs", "held", out);
  });
}

int CmdServeTcp(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    engine::EngineOptions options = ParseEngineOptions(flags);
    server::TcpServerOptions sopts;
    sopts.host = flags.GetString("host", "127.0.0.1", "listen address");
    sopts.port = flags.GetInt(
        "port", 0, "TCP port (0 = ephemeral; the bound port is printed)");
    sopts.max_connections = static_cast<std::size_t>(flags.GetInt(
        "max-connections", 64, "reject connections past this count"));
    sopts.tenant_qps = flags.GetDouble(
        "tenant-qps", 0.0,
        "per-tenant admitted requests/sec (0 = unlimited)");
    sopts.tenant_burst = flags.GetDouble(
        "tenant-burst", 0.0,
        "per-tenant token-bucket burst (0 = max(1, tenant-qps))");
    sopts.idle_timeout_ms = flags.GetInt(
        "idle-timeout-ms", 0, "close silent connections after this (0 = off)");
    sopts.admin_port = flags.GetInt(
        "admin-port", -1,
        "admin HTTP port for /metrics /healthz /statusz /tracez "
        "(-1 = off, 0 = ephemeral)");
    sopts.admin_host =
        flags.GetString("admin-host", "127.0.0.1", "admin listen address");
    ConfigureLogging(flags);
    const bool stats = flags.GetBool(
        "stats", true, "emit a final {\"stats\":...} line after drain");
    flags.Finish();

    engine::BatchEngine batch_engine(options);
    server::TcpServer server(batch_engine, sopts);
    std::signal(SIGPIPE, SIG_IGN);
    g_drain_target = &server;
    std::signal(SIGTERM, HandleDrainSignal);
    std::signal(SIGINT, HandleDrainSignal);
    server.Start();
    out << "{\"listening\":{\"host\":\"" << sopts.host
        << "\",\"port\":" << server.port();
    if (server.admin_port() >= 0) {
      out << ",\"admin_port\":" << server.admin_port();
    }
    out << "}}" << std::endl;
    server.Run();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_drain_target = nullptr;
    if (stats) batch_engine.WriteStatsLine(out);
    out.flush();
    return 0;
  });
}

int CmdMetricsDump(const std::vector<std::string>& args, std::istream& in,
                   std::ostream& out, std::ostream& err) {
  return Guard(out, err, [&] {
    const std::vector<const char*> argv = ToArgv(args);
    FlagParser flags(static_cast<int>(argv.size()), argv.data(), 0);
    const std::string input = flags.GetString(
        "input", "-", "metrics snapshot JSON(L) file, or - for stdin");
    const std::string format = flags.GetString(
        "format", "table", "output format: table | prometheus | json");
    flags.Finish();
    SPARSEDET_REQUIRE(
        format == "table" || format == "prometheus" || format == "json",
        "--format must be table, prometheus or json");

    std::ifstream file;
    std::istream* source = &in;
    if (input != "-") {
      file.open(input);
      SPARSEDET_REQUIRE(file.good(), "cannot open --input " + input);
      source = &file;
    }

    // Accept either a bare metrics object or any enclosing object with a
    // "metrics" key ({"cmd":"stats"} responses). Scanning every line and
    // keeping the last match means whole serve transcripts can be piped in
    // unfiltered.
    JsonValue metrics;
    bool found = false;
    std::string line;
    while (std::getline(*source, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      JsonValue json;
      try {
        json = ParseJson(line);
      } catch (const Error&) {
        continue;
      }
      if (!json.is_object()) continue;
      if (const JsonValue* nested = json.Find("metrics");
          nested != nullptr && nested->is_object()) {
        metrics = *nested;
        found = true;
      } else if (json.Find("counters") != nullptr ||
                 json.Find("histograms") != nullptr) {
        metrics = json;
        found = true;
      }
    }
    SPARSEDET_REQUIRE(found,
                      "no metrics snapshot found in " +
                          (input == "-" ? std::string("stdin") : input));

    const obs::RegistrySnapshot snapshot =
        obs::RegistrySnapshot::FromJson(metrics);
    if (format == "prometheus") {
      out << snapshot.ToPrometheus();
    } else if (format == "json") {
      out << snapshot.ToJson().ToString() << "\n";
    } else {
      snapshot.ToTable().PrintText(out);
    }
    return 0;
  });
}

std::string Usage() {
  return
      "sparsedet — group based detection analysis for sparse sensor "
      "networks\n"
      "\n"
      "usage: sparsedet <command> [--flag value ...]\n"
      "       sparsedet <command> --help   (its flags and defaults)\n"
      "\n"
      "commands:\n"
      "  analyze    analytical report for a scenario (M-S-approach & co)\n"
      "  simulate   Monte-Carlo detection probability\n"
      "  plan       smallest fleet meeting a detection + FA requirement\n"
      "  fa         system-level false alarm table vs threshold k\n"
      "  sweep      detection probability across one parameter\n"
      "  latency    first-passage (time-to-detection) distribution\n"
      "  trace      export one simulated trial as CSV\n"
      "  batch      evaluate a JSONL request stream, then exit\n"
      "  optimize   inverse search: cheapest deployment meeting constraints\n"
      "  adapt      self-healing loop: retune k/M as sensors die\n"
      "  serve      long-running JSONL request loop on stdin/stdout\n"
      "  serve-tcp  concurrent TCP JSONL server with admission control\n"
      "  metrics-dump  render a metrics snapshot as table/Prometheus/JSON\n"
      "\n"
      "scenario flags (all commands): --field-width --field-height --nodes\n"
      "  --rs --rc --pd --period --speed --window --k\n"
      "analyze: --gh --g --normalize --reliability\n"
      "simulate: --trials --seed --pf --reliability --motion --geometry "
      "--h\n"
      "plan: --target-detection --pf --max-fa --max-nodes\n"
      "fa: --pf --trials --max-k\n"
      "sweep: --param --from --to --step [--trials --csv]\n"
      "batch: --input --threads --solver-threads --cache-capacity "
      "--memo-cache-entries --unordered --passes --stats --trace "
      "--trace-file\n"
      "optimize: --spec <file> | (--objective --mode --min-detection --pf\n"
      "  --max-fa --min-lifetime-days --search-nodes/k/window/period/duty\n"
      "  (from:to[:step]) --battery --sense-cost --idle-cost --tx-cost\n"
      "  --rx-cost --hops --refine-rounds) [--deadline-ms + engine flags]\n"
      "  (docs/OPTIMIZER.md)\n"
      "adapt: --spec <file> | (--mode analyze|closed_loop --failure-model\n"
      "  exponential|weibull --mean-lifetime-s --shape --report-loss\n"
      "  --horizon-epochs --epoch-periods --min-detection --pf --max-fa\n"
      "  --search-k/window (from:to[:step]) --margin --min-dwell\n"
      "  --estimator oracle|reports --estimator-windows --estimator-z\n"
      "  --seed --trials) [--deadline-ms + engine flags]\n"
      "  (docs/RESILIENCE.md)\n"
      "serve: --threads --solver-threads --cache-capacity "
      "--memo-cache-entries --stats --trace --trace-file\n"
      "serve-tcp: serve flags plus --host --port --max-connections\n"
      "  --tenant-qps --tenant-burst --idle-timeout-ms\n"
      "  --admin-port --admin-host (HTTP /metrics /healthz /statusz "
      "/tracez)\n"
      "  --log-file --log-level --log-rate-limit (structured JSONL log)\n"
      "batch/serve/serve-tcp SLO flags: --slo-availability --slo-p99-ms "
      "--slo-window-s\n"
      "metrics-dump: --input --format\n"
      "(batch/serve request schema: docs/ENGINE.md; TCP serving: "
      "docs/SERVING.md;\n metrics + spans: docs/OBSERVABILITY.md)\n";
}

int Run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    err << Usage();
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (command == "analyze") return CmdAnalyze(args, out, err);
  if (command == "simulate") return CmdSimulate(args, out, err);
  if (command == "plan") return CmdPlan(args, out, err);
  if (command == "fa") return CmdFa(args, out, err);
  if (command == "sweep") return CmdSweep(args, out, err);
  if (command == "latency") return CmdLatency(args, out, err);
  if (command == "trace") return CmdTrace(args, out, err);
  if (command == "batch") return CmdBatch(args, std::cin, out, err);
  if (command == "optimize") return CmdOptimize(args, out, err);
  if (command == "adapt") return CmdAdapt(args, out, err);
  if (command == "serve") return CmdServe(args, std::cin, out, err);
  if (command == "serve-tcp") return CmdServeTcp(args, out, err);
  if (command == "metrics-dump") {
    return CmdMetricsDump(args, std::cin, out, err);
  }
  if (command == "help" || command == "--help") {
    out << Usage();
    return 0;
  }
  err << "unknown command: " << command << "\n\n" << Usage();
  return 2;
}

}  // namespace sparsedet::cli
