#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "adapt/adapt.h"
#include "adapt/spec.h"
#include "common/json.h"
#include "engine/engine.h"
#include "inputs.h"
#include "loadgen.h"
#include "opt/backend.h"
#include "opt/optimizer.h"
#include "opt/spec.h"
#include "prob/memo_cache.h"
#include "replay.h"
#include "trace.h"

namespace perfbench {

using sparsedet::JsonValue;
namespace engine = sparsedet::engine;
namespace opt = sparsedet::opt;
namespace adapt = sparsedet::adapt;
using sparsedet::prob::MemoCache;
using sparsedet::prob::MemoCacheStats;

namespace {

// ---- Frozen workload parameters (see perfbench/README.md) ----

// serve-hot: hot-set size, Zipf exponent, fresh share, pipelining window
// per closed-loop connection, and the two open-loop rates. The rates were
// calibrated once on the parent commit, at about 1/4 and 1/2 of the
// lowest closed-loop saturation throughput it showed on a 4-vCPU host
// whose speed drifts by up to 5x (3.8k/s; up to 20k/s in fast spells), and
// are frozen so every commit faces the same offered load. Rates set from a
// fast spell push the server past saturation in a slow one, and the run
// then measures a growing backlog instead of service latency.
constexpr ServeHotParams kServeHot{256, 1.0, 0.02};
constexpr std::size_t kClosedLoopWindow = 16;
// Low-phase lines the traced run replays (per pass).
constexpr std::size_t kServeTracedLines = 6000;
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 2000.0;
// Throughput and latency percentiles are taken per window (of completion
// times, of scheduled send times, or of busy time) and reported as the
// median over the run's windows, so a stall of the host moves one window,
// not the figure. A second at the low rate holds 10 samples beyond p99.
constexpr double kWindowS = 1.0;
// Shares of --seconds given to the closed-loop saturation phase, which
// gives the end-to-end figure, and to each open-loop phase.
constexpr double kSaturationShare = 0.7;
constexpr double kOpenLoopShare = 0.15;

// study-cold: chunks re-run at pool width 1 for the byte-identity check
// (and, in the traced run, replayed and reconciled).
constexpr std::size_t kStudyCheckChunks = 12;
// optimize-grid / adapt-closed-loop: specs re-run for the run-to-run
// byte-identity check, and specs the traced run replays.
constexpr std::size_t kOptimizeCheckSpecs = 2;
constexpr std::size_t kOptimizeTracedSpecs = 8;
constexpr std::size_t kAdaptCheckSpecs = 1;
constexpr std::size_t kAdaptTracedSpecs = 2;
constexpr std::size_t kKeptResults = 16;

constexpr double kNsPerSecond = 1e9;

std::int64_t ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000LL +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

// (latency in ns, how many ops it stands for)
using Samples = std::vector<std::pair<std::int64_t, std::int64_t>>;

// Nearest-rank percentile of weighted samples, in milliseconds.
double PercentileMs(Samples samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::int64_t total = 0;
  for (const auto& sample : samples) total += sample.second;
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total))));
  std::int64_t seen = 0;
  for (const auto& [ns, weight] : samples) {
    seen += weight;
    if (seen >= rank) return static_cast<double>(ns) / 1e6;
  }
  return static_cast<double>(samples.back().first) / 1e6;
}

double PercentileMs(const std::vector<std::int64_t>& values, double q) {
  Samples samples;
  samples.reserve(values.size());
  for (std::int64_t v : values) samples.emplace_back(v, 1);
  return PercentileMs(std::move(samples), q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Throughput of an in-process workload whose work comes in pieces (chunks,
// specs): consecutive pieces are pooled into windows of at least kWindowS
// busy seconds, and the figure is the median of the windows' rates. The CPU
// time the pieces took is summed over the whole run.
class WindowedThroughput {
 public:
  // True when this piece closed a window.
  bool Add(std::int64_t ops, std::int64_t ns, std::int64_t cpu_us) {
    ++pieces_;
    ops_ += ops;
    ns_ += ns;
    total_ops_ += ops;
    total_ns_ += ns;
    total_cpu_us_ += cpu_us;
    if (static_cast<double>(ns_) < kWindowS * 1e9) return false;
    Close();
    return true;
  }
  std::int64_t ops() const { return total_ops_; }
  std::int64_t busy_ns() const { return total_ns_; }
  std::int64_t cpu_us() const { return total_cpu_us_; }
  double aggregate() const {
    return total_ns_ > 0 ? static_cast<double>(total_ops_) * 1e9 /
                               static_cast<double>(total_ns_)
                         : 0.0;
  }
  // CPU microseconds per op over the run.
  double cpu_us_per_op() const {
    return Ratio(static_cast<double>(total_cpu_us_),
                 static_cast<double>(total_ops_));
  }
  // Ops per wall second; a run too short to close a window reports its one
  // open window.
  double median() const {
    if (!rates_.empty()) return Median(rates_);
    return Ratio(static_cast<double>(ops_) * 1e9, static_cast<double>(ns_));
  }
  std::size_t windows() const { return rates_.size(); }
  std::int64_t pieces() const { return pieces_; }

 private:
  void Close() {
    rates_.push_back(static_cast<double>(ops_) * 1e9 / static_cast<double>(ns_));
    ops_ = 0;
    ns_ = 0;
  }
  std::int64_t ops_ = 0;
  std::int64_t ns_ = 0;
  std::int64_t total_ops_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t total_cpu_us_ = 0;
  std::int64_t pieces_ = 0;
  std::vector<double> rates_;
};

void NoteThroughput(const WindowedThroughput& rate, const Report& report) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "over the run %.3f op/s, %.3f CPU us/op; median of %zu "
                "windows %.3f op/s",
                rate.aggregate(), rate.cpu_us_per_op(), rate.windows(),
                rate.median());
  report.Note(line);
}

// Closed loop: the median over kWindowS windows of completions per second.
double WindowedRate(const PhaseResult& phase) {
  const std::size_t windows = static_cast<std::size_t>(
      static_cast<double>(phase.window_ns) / (kWindowS * 1e9));
  std::vector<double> counts(std::max<std::size_t>(windows, 1), 0.0);
  for (std::int64_t at : phase.completion_ns) {
    const std::size_t w = static_cast<std::size_t>(
        static_cast<double>(at) / (kWindowS * 1e9));
    if (w < counts.size()) counts[w] += 1.0;
  }
  for (double& c : counts) c /= kWindowS;
  return Median(counts);
}

// Latency samples that may stand for several ops each (every candidate of
// one inner-solve batch waits for the whole batch), grouped into the same
// windows as the workload's throughput.
class Latencies {
 public:
  void Add(std::int64_t ns, std::int64_t weight = 1) {
    if (windows_.empty()) windows_.emplace_back();
    windows_.back().emplace_back(ns, weight);
    count_ += weight;
  }
  void CloseWindow() {
    if (!windows_.empty() && !windows_.back().empty()) windows_.emplace_back();
  }
  std::int64_t count() const { return count_; }
  std::size_t windows() const {
    return windows_.empty() || !windows_.back().empty() ? windows_.size()
                                                        : windows_.size() - 1;
  }
  // The median over windows of each window's percentile, in milliseconds.
  double PercentileMs(double q) const {
    std::vector<double> per_window;
    for (const Samples& window : windows_) {
      if (!window.empty()) per_window.push_back(perfbench::PercentileMs(window, q));
    }
    return Median(per_window);
  }

 private:
  std::vector<Samples> windows_;
  std::int64_t count_ = 0;
};

// An open-loop phase's latencies in kWindowS windows of scheduled send time.
Latencies PhaseLatencies(const PhaseResult& phase) {
  Latencies latencies;
  std::size_t window = 0;
  for (std::size_t i = 0; i < phase.scheduled_ns.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(
        static_cast<double>(phase.scheduled_ns[i]) / (kWindowS * 1e9));
    for (; window < w; ++window) latencies.CloseWindow();
    if (phase.latency_by_request[i] >= 0) {
      latencies.Add(phase.latency_by_request[i]);
    }
  }
  return latencies;
}

void NoteLatencies(const Latencies& latency, const Report& report) {
  report.Note("latency: " + std::to_string(latency.count()) + " samples in " +
              std::to_string(latency.windows()) + " windows; p50 " +
              std::to_string(latency.PercentileMs(0.5)) + " ms, p99 " +
              std::to_string(latency.PercentileMs(0.99)) +
              " ms (medians over windows)");
}

// An unbuffered output that notes when each response line is complete, so
// a RunBatch caller can time every request from the start of its batch.
class LineClock : public std::streambuf {
 public:
  explicit LineClock(Latencies& sink) : sink_(sink), start_ns_(NowNs()) {}
  const std::string& text() const { return text_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    text_.append(data, static_cast<std::size_t>(n));
    const std::int64_t lines = std::count(data, data + n, '\n');
    if (lines > 0) sink_.Add(NowNs() - start_ns_, lines);
    return n;
  }

 private:
  Latencies& sink_;
  const std::int64_t start_ns_;
  std::string text_;
};

// Times the inner solves of Optimizer::Run and AdaptRun. Per candidate:
// the duration of its batch. Per adapt epoch: the time from the previous
// epoch's end (or the run's start) to the end of its Monte-Carlo
// validation, which closes every closed-loop epoch.
class TimedBackend : public opt::SolveBackend {
 public:
  explicit TimedBackend(opt::SolveBackend& inner) : inner_(inner) {}

  void MarkRunStart() { epoch_start_ns_ = NowNs(); }
  std::vector<JsonValue> Solve(const std::vector<std::string>& lines) override {
    const std::int64_t start = NowNs();
    std::vector<JsonValue> responses = inner_.Solve(lines);
    const std::int64_t end = NowNs();
    batches_.Add(end - start, static_cast<std::int64_t>(lines.size()));
    for (const std::string& line : lines) {
      if (line.find("\"op\":\"simulate\"") != std::string::npos) {
        epochs_.Add(end - epoch_start_ns_);
        epoch_start_ns_ = end;
        break;
      }
    }
    return responses;
  }
  void CloseWindow() {
    batches_.CloseWindow();
    epochs_.CloseWindow();
  }
  const Latencies& per_line() const { return batches_; }
  const Latencies& per_epoch() const { return epochs_; }

 private:
  opt::SolveBackend& inner_;
  std::int64_t epoch_start_ns_ = 0;
  Latencies batches_;
  Latencies epochs_;
};

double MeanUs(const std::vector<std::int64_t>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (std::int64_t v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size()) / 1e3;
}

std::string Digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) hash = (hash ^ c) * 0x100000001b3ULL;
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// detection_probability values outside [0, 1] anywhere in the tree.
std::int64_t BadProbabilities(const JsonValue& value) {
  std::int64_t bad = 0;
  if (value.is_object()) {
    for (const auto& [key, field] : value.Fields()) {
      if (key == "detection_probability" && field.is_number() &&
          !(field.AsDouble() >= 0.0 && field.AsDouble() <= 1.0)) {
        ++bad;
      }
      bad += BadProbabilities(field);
    }
  } else if (value.is_array()) {
    for (const JsonValue& item : value.Items()) bad += BadProbabilities(item);
  }
  return bad;
}

// An engine response that is a success with every probability in [0, 1].
bool GoodResponse(const std::string& line) {
  try {
    const JsonValue json = sparsedet::ParseJson(line);
    return json.is_object() && json.Find("error") == nullptr &&
           BadProbabilities(json) == 0;
  } catch (const sparsedet::Error&) {
    return false;
  }
}

engine::EngineOptions PoolWidth(std::size_t threads) {
  engine::EngineOptions options;
  options.threads = threads;
  return options;
}

void SleepUntil(std::int64_t target_ns) {
  for (;;) {
    const std::int64_t left = target_ns - NowNs();
    if (left <= 0) return;
    if (left > 200000) {
      timespec pause{0, left - 100000};
      nanosleep(&pause, nullptr);
    }
  }
}

// ---- The traced run ----

struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
Timing Measure(F&& body) {
  const std::int64_t cpu = ProcessCpuUs();
  const std::int64_t start = NowNs();
  body();
  return Timing{static_cast<double>(NowNs() - start) / kNsPerSecond,
                static_cast<double>(ProcessCpuUs() - cpu) / 1e6};
}

// Per-layer values of one traced run, pre-filled with every per-layer
// metric at 0 so each run reports the same set.
class LayerValues {
 public:
  LayerValues() {
    for (const auto& [name, unit] : PerLayerMetrics()) values_[name] = 0.0;
  }
  double& operator[](const std::string& name) { return values_.at(name); }
  void WriteTo(Report& report) const {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      report.Set(name, values_.at(name), unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

// A traced replay with its untraced reference: the same path on the same
// input, every pass from an empty solver memo cache. Totals cover every
// traced pass; the comparison uses the median pass of each side.
struct Reconciliation {
  double ops = 0.0;  // ops over every traced pass
  std::vector<Timing> untraced;        // per untraced pass
  std::vector<Timing> traced;          // per traced pass
  std::vector<double> layer_sum_ns;    // per traced pass: sum of self times
  Tracer tracer;
  ReplayCounters counters;
  double memo_hits = 0.0;
  double memo_misses = 0.0;
  double memo_evictions = 0.0;
};

// Pins the calling thread, and the threads it starts, to the CPU it is on;
// restores the old mask on exit. The reconciliation uses it so the real
// engine's coordinator and pool worker take turns on one CPU the way the
// single-threaded replay does.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(std::max(0, sched_getcpu()), &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  ~PinToOneCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

// A pass sets itself up, then hands its measured part to `timed`.
using Timed = std::function<void(const std::function<void()>&)>;

void Accumulate(ReplayCounters& into, const ReplayCounters& c) {
  into.requests += c.requests;
  into.units += c.units;
  into.cache_lookups += c.cache_lookups;
  into.cache_hits += c.cache_hits;
  into.core_units += c.core_units;
  into.sim_trials += c.sim_trials;
  into.numbers_rendered += c.numbers_rendered;
}

// Runs the passes untraced, traced, traced, untraced, twice over, so a
// host whose speed drifts during the run shifts both sides alike, and
// compares the median pass of each side so one stall does not decide it.
// `untraced(timed)` runs the real path and `traced(timed, &counters)` the
// replay; each returns its output. False when any output differs from the
// first.
template <typename Untraced, typename TracedPass>
bool Reconcile(Reconciliation& rec, Untraced&& untraced, TracedPass&& traced) {
  const PinToOneCpu pin;
  constexpr bool kTracedPass[] = {false, true, true, false,
                                  false, true, true, false};
  std::string reference;
  bool same = true;
  for (std::size_t pass = 0; pass < std::size(kTracedPass); ++pass) {
    MemoCache::Global().Clear();
    std::string output;
    if (!kTracedPass[pass]) {
      output = untraced(Timed([&](const std::function<void()>& body) {
        rec.untraced.push_back(Measure(body));
      }));
    } else {
      ReplayCounters counters;
      output = traced(
          Timed([&](const std::function<void()>& body) {
            const MemoCacheStats before = MemoCache::Global().Stats();
            const std::size_t first_span = rec.tracer.size();
            SetActiveTracer(&rec.tracer);
            rec.traced.push_back(Measure(body));
            SetActiveTracer(nullptr);
            rec.layer_sum_ns.push_back(
                static_cast<double>(rec.tracer.TopLevelNs(first_span)));
            const MemoCacheStats after = MemoCache::Global().Stats();
            rec.memo_hits += static_cast<double>(after.hits - before.hits);
            rec.memo_misses += static_cast<double>(after.misses - before.misses);
            rec.memo_evictions +=
                static_cast<double>(after.evictions - before.evictions);
          }),
          &counters);
      Accumulate(rec.counters, counters);
    }
    if (pass == 0) {
      reference = std::move(output);
    } else {
      same = same && output == reference;
    }
  }
  return same;
}

// Fills the layer values a replay measures and prints the layer table.
void AddReplayLayers(const Reconciliation& rec, const Options& options,
                     LayerValues& v, const Report& report) {
  const std::map<std::string, LayerTotals> spans = rec.tracer.Layers();
  const auto self_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto total_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const double ops = rec.ops;
  const auto per_op_us = [&](double ns) { return Ratio(ns, ops) / 1e3; };
  const ReplayCounters& c = rec.counters;

  v["engine.submit_us"] = per_op_us(
      self_ns("common.json_parse") + self_ns("engine.parse_request") +
      self_ns("engine.plan") + self_ns("engine.cache"));
  v["engine.parse_request_us"] = per_op_us(self_ns("engine.parse_request"));
  v["engine.plan_us"] = per_op_us(self_ns("engine.plan"));
  v["engine.cache_us"] =
      per_op_us(self_ns("engine.cache") + self_ns("engine.publish"));
  v["engine.compose_us"] = per_op_us(self_ns("engine.compose"));
  v["engine.result_cache_hit_ratio"] =
      Ratio(static_cast<double>(c.cache_hits),
            static_cast<double>(c.cache_lookups));
  v["engine.result_cache_lookups"] = static_cast<double>(c.cache_lookups);
  v["engine.units_per_op"] =
      Ratio(static_cast<double>(c.units), static_cast<double>(c.requests));
  v["common.json_parse_us"] =
      per_op_us(self_ns("common.json_parse") + self_ns("common.json_reparse"));
  v["common.json_render_us"] = per_op_us(self_ns("common.json_render"));
  v["common.json_numbers_per_op"] =
      Ratio(static_cast<double>(c.numbers_rendered), ops);
  v["common.json_render_ns_per_number"] =
      Ratio(self_ns("common.json_render"),
            static_cast<double>(c.numbers_rendered));
  v["core.solve_us_per_unit"] =
      Ratio(self_ns("core.solve"), static_cast<double>(c.core_units)) / 1e3;
  v["core.units"] = static_cast<double>(c.core_units);
  v["sim.us_per_trial"] =
      Ratio(self_ns("sim.trial"), static_cast<double>(c.sim_trials)) / 1e3;
  v["sim.trials"] = static_cast<double>(c.sim_trials);
  const double memo_lookups = rec.memo_hits + rec.memo_misses;
  v["prob.memo_hit_ratio"] = Ratio(rec.memo_hits, memo_lookups);
  v["prob.memo_lookups"] = memo_lookups;
  v["prob.memo_evictions"] = rec.memo_evictions;
  v["opt.self_us_per_op"] = per_op_us(self_ns("opt.run"));
  v["opt.backend_us_per_op"] = per_op_us(total_ns("opt.backend"));
  v["adapt.self_ms_per_op"] = per_op_us(self_ns("adapt.run")) / 1e3;
  v["adapt.grid_ms_per_op"] = per_op_us(total_ns("adapt.grid")) / 1e3;
  v["adapt.validate_ms_per_op"] = per_op_us(total_ns("adapt.validate")) / 1e3;

  double sum_ns = 0.0;
  std::string largest;
  double largest_ns = -1.0;
  std::map<std::string, double> modules;
  for (const auto& [name, totals] : spans) {
    const double ns = static_cast<double>(totals.self_ns);
    sum_ns += ns;
    modules[name.substr(0, name.find('.'))] += ns;
    if (ns > largest_ns) {
      largest_ns = ns;
      largest = name;
    }
  }
  // Per pass (each pass covers ops / passes ops): the median traced pass's
  // layer sum against the median untraced pass's CPU and wall time.
  const double passes = static_cast<double>(rec.traced.size());
  const auto pass_median = [](const std::vector<Timing>& timings,
                              double Timing::*field) {
    std::vector<double> values;
    for (const Timing& t : timings) values.push_back(t.*field * kNsPerSecond);
    return Median(values);
  };
  const double pass_ops = Ratio(ops, passes);
  const auto per_pass_op_us = [&](double ns) { return Ratio(ns, pass_ops) / 1e3; };
  const double layer_sum_ns = Median(rec.layer_sum_ns);
  const double untraced_ns = pass_median(rec.untraced, &Timing::cpu_s);
  const double untraced_wall_ns = pass_median(rec.untraced, &Timing::wall_s);
  const double overhead_s =
      (pass_median(rec.traced, &Timing::wall_s) - untraced_wall_ns) / kNsPerSecond;
  const double reconcile_error = Ratio(layer_sum_ns, untraced_ns) - 1.0;
  v["trace.ops"] = ops;
  v["trace.spans"] = static_cast<double>(rec.tracer.size());
  v["trace.layer_sum_us_per_op"] = per_pass_op_us(layer_sum_ns);
  v["trace.untraced_cpu_us_per_op"] = per_pass_op_us(untraced_ns);
  v["trace.untraced_wall_us_per_op"] = per_pass_op_us(untraced_wall_ns);
  v["trace.reconcile_error"] = reconcile_error;
  v["trace.overhead_s"] = overhead_s;
  v["trace.largest_layer_share"] = Ratio(largest_ns, sum_ns);

  char line[256];
  report.Note("layer self times per op (traced run, " +
              std::to_string(static_cast<long long>(ops)) + " ops):");
  for (const auto& [name, totals] : spans) {
    std::snprintf(line, sizeof(line), "  %-22s %10.3f us/op %6.1f%%  calls %lld",
                  name.c_str(), per_op_us(static_cast<double>(totals.self_ns)),
                  100.0 * Ratio(static_cast<double>(totals.self_ns), sum_ns),
                  static_cast<long long>(totals.calls));
    report.Note(line);
  }
  std::string module_line = "module shares:";
  for (const auto& [module, ns] : modules) {
    std::snprintf(line, sizeof(line), " %s %.1f%%", module.c_str(),
                  100.0 * Ratio(ns, sum_ns));
    module_line += line;
  }
  report.Note(module_line);
  std::snprintf(line, sizeof(line),
                "largest layer: %s (%.1f%% of traced self time)",
                largest.c_str(), 100.0 * Ratio(largest_ns, sum_ns));
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "reconciliation (median of %.0f passes a side, one CPU): layer "
                "sum %.2f us/op vs untraced CPU %.2f us/op (%+.1f%%; wall "
                "%.2f us/op); tracing overhead %.3f s a pass",
                passes, per_pass_op_us(layer_sum_ns), per_pass_op_us(untraced_ns),
                100.0 * reconcile_error, per_pass_op_us(untraced_wall_ns),
                overhead_s);
  report.Note(line);
  std::string passes_line = "passes, us/op: untraced CPU";
  for (const Timing& t : rec.untraced) {
    passes_line += " " + std::to_string(per_pass_op_us(t.cpu_s * kNsPerSecond));
  }
  passes_line += " | traced layer sum";
  for (double ns : rec.layer_sum_ns) {
    passes_line += " " + std::to_string(per_pass_op_us(ns));
  }
  report.Note(passes_line);
  if (std::abs(reconcile_error) > 0.10) {
    report.Note("WARNING: layer self times do not reconcile within 10%");
  }
  if (!options.spans_path.empty() && !rec.tracer.WriteJsonl(options.spans_path)) {
    report.Note("WARNING: cannot write spans to " + options.spans_path);
  }
}

// ---- serve-hot ----

struct InProcess {
  double submit_us = 0.0;   // mean SubmitLineAsync duration
  double latency_us = 0.0;  // mean scheduled send -> callback
  std::int64_t mismatches = 0;
};

// The low-rate schedule submitted straight to an in-process engine.
InProcess RunInProcess(const ServeHotTraffic& traffic,
                       const std::vector<std::int64_t>& at,
                       const std::vector<std::size_t>& lines,
                       const ResponseBook& book, std::size_t pool_width) {
  engine::BatchEngine engine(PoolWidth(pool_width));
  engine.StartAsync();
  const std::vector<std::string>& hot = traffic.hot_lines();
  for (std::size_t i = 0; i < hot.size(); ++i) {
    engine.SubmitLineAsync(hot[i], static_cast<int>(i) + 1, nullptr, false,
                           [](std::string) {});
  }
  engine.DrainAsync();
  std::vector<std::int64_t> latency(at.size(), 0);
  std::vector<std::string> responses(at.size());
  std::vector<std::int64_t> submit(at.size(), 0);
  const std::int64_t start = NowNs() + 1000000;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const std::int64_t scheduled = start + at[i];
    SleepUntil(scheduled);
    const std::int64_t t0 = NowNs();
    engine.SubmitLineAsync(
        traffic.line(lines[i]), static_cast<int>(i) + 1, nullptr, false,
        [&latency, &responses, i, scheduled](std::string response) {
          latency[i] = NowNs() - scheduled;
          responses[i] = std::move(response);
        });
    submit[i] = NowNs() - t0;
  }
  engine.DrainAsync();
  engine.StopAsync();
  InProcess result;
  result.submit_us = MeanUs(submit);
  result.latency_us = MeanUs(latency);
  for (std::size_t i = 0; i < at.size(); ++i) {
    if (lines[i] >= book.first().size() ||
        responses[i] != book.first()[lines[i]]) {
      ++result.mismatches;
    }
  }
  return result;
}

// Cache counters from a {"cmd":"stats"} response.
std::pair<double, double> CacheHitsMisses(const std::string& stats_line) {
  const JsonValue json = sparsedet::ParseJson(stats_line);
  const JsonValue& cache = *json.Find("stats")->Find("cache");
  return {cache.Find("hits")->AsDouble(), cache.Find("misses")->AsDouble()};
}

void NotePhase(const Report& report, const char* name, double rate,
               const PhaseResult& phase) {
  const Latencies windows = PhaseLatencies(phase);
  char line[400];
  std::snprintf(
      line, sizeof(line),
      "%s: rate %.0f/s sent %lld ok %lld failed %lld samples %zu | per-window "
      "median p50 %.3f ms p99 %.3f ms | whole phase p50 %.3f ms p99 %.3f ms "
      "p99.9 %.3f ms | late p50 %.3f ms p99 %.3f ms | "
      "outstanding at end %lld%s%s",
      name, rate, static_cast<long long>(phase.sent),
      static_cast<long long>(phase.completed),
      static_cast<long long>(phase.failed), phase.latency_ns.size(),
      windows.PercentileMs(0.5), windows.PercentileMs(0.99),
      PercentileMs(phase.latency_ns, 0.5), PercentileMs(phase.latency_ns, 0.99),
      PercentileMs(phase.latency_ns, 0.999), PercentileMs(phase.late_ns, 0.5),
      PercentileMs(phase.late_ns, 0.99),
      static_cast<long long>(phase.outstanding_at_end),
      phase.backlog_growing ? " | BACKLOG GROWING" : "",
      PercentileMs(phase.late_ns, 0.99) > 1.0 ? " | GENERATOR FELL BEHIND" : "");
  report.Note(line);
}

}  // namespace

void RunServeHot(const Options& o, Report& report) {
  const std::int64_t gen_start_us = ProcessCpuUs();
  ServeHotTraffic traffic(o.seed, kServeHot);
  const std::int64_t gen_us = ProcessCpuUs() - gen_start_us;
  ServerProcess server(o.sparsedet, {"serve-tcp", "--port", "0", "--threads",
                                     std::to_string(o.nproc), "--log-level",
                                     "error"});
  LoadClient client(server.port(), o.nproc);
  ResponseBook book;
  const std::vector<std::string> warm = client.RoundTrip(traffic.hot_lines());
  std::int64_t warm_bad = 0;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (warm[i].find("\"error\":") != std::string::npos ||
        !book.Record(i, warm[i])) {
      ++warm_bad;
    }
  }
  // Set-up is the harness's CPU time, less input generation, plus the
  // server's: its start and the hot-set warm-up.
  report.Ready(static_cast<double>(ProcessCpuUs() - gen_us + server.CpuMicros()) /
               1e6);
  if (o.setup_only) return;

  const Rng root = Rng(o.seed).Fork(10);
  const double phase_s = o.seconds * kOpenLoopShare;
  const std::string stats_before = client.RoundTrip({"{\"cmd\":\"stats\"}"})[0];
  const std::int64_t low_cpu_before = server.CpuMicros();
  const PhaseResult low =
      client.OpenLoop(traffic, root.Fork(2), "l", kLowRate, phase_s, book);
  const std::int64_t low_cpu_us = server.CpuMicros() - low_cpu_before;
  const std::string stats_after = client.RoundTrip({"{\"cmd\":\"stats\"}"})[0];
  const std::int64_t high_cpu_before = server.CpuMicros();
  const PhaseResult high =
      client.OpenLoop(traffic, root.Fork(3), "h", kHighRate, phase_s, book);
  const std::int64_t high_cpu_us = server.CpuMicros() - high_cpu_before;
  // Peak memory after the phases whose request counts are fixed: how many
  // fresh scenarios the saturation phase caches follows the host's speed.
  const double peak_rss_mb = static_cast<double>(server.PeakRssKib()) / 1024.0;
  const std::int64_t sat_cpu_before = server.CpuMicros();
  const PhaseResult sat =
      client.ClosedLoop(traffic, root.Fork(1), "s", kClosedLoopWindow,
                        o.seconds * kSaturationShare, book);
  const std::int64_t sat_cpu_us = server.CpuMicros() - sat_cpu_before;
  const int server_status = server.Stop();

  char line[256];
  std::snprintf(line, sizeof(line),
                "saturation: %zu connections x window %zu, %lld ok in %.2f s "
                "(%.0f/s; per-window median %.0f/s), failed %lld",
                o.nproc, kClosedLoopWindow, static_cast<long long>(sat.in_window),
                static_cast<double>(sat.window_ns) / kNsPerSecond,
                static_cast<double>(sat.in_window) * kNsPerSecond /
                    static_cast<double>(sat.window_ns),
                WindowedRate(sat), static_cast<long long>(sat.failed));
  report.Note(line);
  NotePhase(report, "low", kLowRate, low);
  NotePhase(report, "high", kHighRate, high);
  std::snprintf(line, sizeof(line),
                "server CPU per request: saturation %.3f us, low %.3f us, "
                "high %.3f us",
                Ratio(static_cast<double>(sat_cpu_us),
                      static_cast<double>(sat.completed)),
                Ratio(static_cast<double>(low_cpu_us),
                      static_cast<double>(low.completed)),
                Ratio(static_cast<double>(high_cpu_us),
                      static_cast<double>(high.completed)));
  report.Note(line);

  // Output check: every response equals what BatchEngine::Serve (the stdio
  // loop) answers for the same line.
  std::vector<std::size_t> seen;
  std::string distinct;
  for (std::size_t i = 0; i < book.first().size(); ++i) {
    if (book.first()[i].empty()) continue;
    seen.push_back(i);
    distinct += traffic.line(i);
    distinct += '\n';
  }
  std::vector<std::string> reference;
  {
    engine::BatchEngine stdio(PoolWidth(o.nproc));
    std::istringstream in(distinct);
    std::ostringstream out;
    stdio.Serve(in, out);
    reference = SplitLines(out.str());
  }
  std::int64_t mismatched = 0;
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (j >= reference.size() || reference[j] != book.first()[seen[j]] ||
        !GoodResponse(reference[j])) {
      ++mismatched;
    }
  }
  report.Note("checked " + std::to_string(seen.size()) +
              " distinct request lines against BatchEngine::Serve");
  const std::int64_t attempted = sat.sent + low.sent + high.sent;
  report.Count(attempted, sat.failed + low.failed + high.failed);
  if (warm_bad > 0) report.FailCheck("warm-up responses", warm_bad);
  if (mismatched > 0) {
    report.FailCheck("responses differing from BatchEngine::Serve", mismatched);
  }
  if (server_status != 0) report.FailCheck("server drain exit status", 1);
  if (!report.correct()) return;

  if (!o.trace) {
    report.Set("cpu_us_per_op",
               Ratio(static_cast<double>(sat_cpu_us),
                     static_cast<double>(sat.completed)),
               "us");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    return;
  }

  LayerValues v;
  v["run.ops_per_s"] = WindowedRate(sat);
  v["run.p50_ms"] = PhaseLatencies(high).PercentileMs(0.5);
  v["proc.cpu_util"] = Ratio(static_cast<double>(sat_cpu_us) * 1e3,
                             static_cast<double>(sat.window_ns) *
                                 static_cast<double>(o.nproc));
  v["gen.late_ms_p99"] = std::max(PercentileMs(low.late_ns, 0.99),
                                  PercentileMs(high.late_ns, 0.99));
  v["server.bytes_per_op"] =
      Ratio(static_cast<double>(low.bytes), static_cast<double>(low.sent));
  v["server.p50_ms_low"] = PhaseLatencies(low).PercentileMs(0.5);
  v["server.p99_ms_low"] = PhaseLatencies(low).PercentileMs(0.99);
  v["server.p99_ms_high"] = PhaseLatencies(high).PercentileMs(0.99);

  // The low phase's schedule again, submitted in process: what the engine
  // answers without the server in front of it.
  const InProcess inproc = RunInProcess(traffic, low.scheduled_ns, low.lines,
                                        book, o.nproc);
  if (inproc.mismatches > 0) {
    report.FailCheck("in-process responses differing from the server's",
                     inproc.mismatches);
    return;
  }
  v["engine.emit_us"] = inproc.latency_us;
  v["server.self_us"] = MeanUs(low.latency_ns) - inproc.latency_us;

  // Reconciliation: BatchEngine::Serve (pool width 1) on the low phase's
  // lines against the traced replay; each pass first warms the hot set.
  const std::string hot_text = JoinLines(traffic.hot_lines());
  std::vector<std::string> sequence;
  for (std::size_t i = 0; i < std::min(low.lines.size(), kServeTracedLines); ++i) {
    sequence.push_back(traffic.line(low.lines[i]));
  }
  const std::string sequence_text = JoinLines(sequence);
  Reconciliation rec;
  rec.ops = 4.0 * static_cast<double>(sequence.size());
  const bool same = Reconcile(
      rec,
      [&](const Timed& timed) {
        engine::BatchEngine stdio(PoolWidth(1));
        std::istringstream warm_in(hot_text);
        std::ostringstream sink;
        stdio.Serve(warm_in, sink);
        std::istringstream in(sequence_text);
        std::ostringstream out;
        timed([&] { stdio.Serve(in, out); });
        return out.str();
      },
      [&](const Timed& timed, ReplayCounters* counters) {
        ReplayEngine replay;
        for (std::size_t i = 0; i < traffic.hot_lines().size(); ++i) {
          replay.ServeLine(traffic.hot_lines()[i], static_cast<int>(i) + 1);
        }
        replay.ResetCounters();
        std::string out;
        timed([&] {
          for (std::size_t i = 0; i < sequence.size(); ++i) {
            out += replay.ServeLine(sequence[i], static_cast<int>(i) + 1);
            out += '\n';
          }
        });
        *counters = replay.counters();
        return out;
      });
  if (!same) {
    report.FailCheck("traced replay differing from BatchEngine::Serve",
                     static_cast<std::int64_t>(sequence.size()));
    return;
  }
  AddReplayLayers(rec, o, v, report);
  // Serve-hot runs the real async engine for these two; the replay's
  // plan-side estimate stays in the table above.
  v["engine.submit_us"] = inproc.submit_us;
  const auto [hits_before, misses_before] = CacheHitsMisses(stats_before);
  const auto [hits_after, misses_after] = CacheHitsMisses(stats_after);
  const double lookups =
      hits_after - hits_before + misses_after - misses_before;
  v["engine.result_cache_lookups"] = lookups;
  v["engine.result_cache_hit_ratio"] = Ratio(hits_after - hits_before, lookups);
  v.WriteTo(report);
}

void RunStudyCold(const Options& o, Report& report) {
  StudyColdTraffic traffic(o.seed, StudyColdParams{});
  auto pool = std::make_unique<engine::BatchEngine>(PoolWidth(o.nproc));
  report.Ready(static_cast<double>(ProcessCpuUs()) / 1e6);
  if (o.setup_only) return;

  const double budget_s = o.trace ? o.seconds / 2.0 : o.seconds;
  std::vector<std::vector<std::string>> check_chunks;
  std::vector<std::string> outputs;  // of the check chunks
  WindowedThroughput rate;
  Latencies latency;  // per request line, from the start of its batch
  std::int64_t lines = 0;
  std::int64_t bad = 0;
  while (static_cast<double>(rate.busy_ns()) < budget_s * kNsPerSecond) {
    std::vector<std::string> chunk = traffic.NextChunk();
    std::istringstream in(JoinLines(chunk));
    const std::uint64_t units_before = pool->stats().units;
    const std::int64_t cpu_before = ProcessCpuUs();
    LineClock clock(latency);
    std::ostream out(&clock);
    const std::int64_t start = NowNs();
    pool->RunBatch(in, out);
    const std::int64_t busy = NowNs() - start;
    if (rate.Add(static_cast<std::int64_t>(pool->stats().units - units_before),
                 busy, ProcessCpuUs() - cpu_before)) {
      latency.CloseWindow();
    }
    lines += static_cast<std::int64_t>(chunk.size());
    // Output check 1, outside the timed calls: every response succeeded
    // with probabilities in [0, 1].
    for (const std::string& line : SplitLines(clock.text())) {
      bad += GoodResponse(line) ? 0 : 1;
    }
    if (check_chunks.size() < kStudyCheckChunks) {
      check_chunks.push_back(std::move(chunk));
      outputs.push_back(clock.text());
    }
  }
  const double peak_rss_mb = static_cast<double>(PeakRssKib("self")) / 1024.0;
  pool.reset();
  const std::int64_t units = rate.ops();

  // Output check 2: the first chunks again at pool width 1, from an empty
  // memo cache, byte for byte. The traced run makes this pass twice, as the
  // untraced reference its replay reconciles against.
  std::string expected;
  for (const std::string& out : outputs) expected += out;
  const auto serial_pass = [&](const Timed& timed) {
    engine::BatchEngine serial(PoolWidth(1));
    std::string text;
    timed([&] {
      for (const auto& chunk : check_chunks) {
        std::istringstream in(JoinLines(chunk));
        std::ostringstream out;
        serial.RunBatch(in, out);
        text += out.str();
      }
    });
    return text;
  };
  MemoCache::Global().Clear();
  const bool serial_same =
      serial_pass(Timed([](const std::function<void()>& body) { body(); })) ==
      expected;
  report.Note("ran " + std::to_string(lines) + " request lines, " +
              std::to_string(units) + " work units; re-ran " +
              std::to_string(check_chunks.size()) +
              " chunks at pool width 1");
  NoteLatencies(latency, report);
  NoteThroughput(rate, report);
  report.Count(units, bad);
  if (bad > 0) report.FailCheck("error or out-of-range responses", bad);
  if (!serial_same) {
    report.FailCheck("output differing between pool width 1 and " +
                         std::to_string(o.nproc),
                     static_cast<std::int64_t>(check_chunks.size()));
  }
  if (!report.correct()) return;

  if (!o.trace) {
    report.Set("cpu_us_per_op", rate.cpu_us_per_op(), "us");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    return;
  }

  LayerValues v;
  v["run.ops_per_s"] = rate.median();
  v["run.p50_ms"] = latency.PercentileMs(0.5);
  v["proc.cpu_util"] = Ratio(
      static_cast<double>(rate.cpu_us()) * 1e3,
      static_cast<double>(rate.busy_ns()) * static_cast<double>(o.nproc));
  Reconciliation rec;
  std::uint64_t traced_units = 0;
  const bool same = Reconcile(
      rec, serial_pass, [&](const Timed& timed, ReplayCounters* counters) {
        ReplayEngine replay;
        std::string text;
        timed([&] {
          for (const auto& chunk : check_chunks) {
            std::istringstream in(JoinLines(chunk));
            std::ostringstream out;
            replay.RunBatch(in, out);
            text += out.str();
          }
        });
        *counters = replay.counters();
        traced_units += static_cast<std::uint64_t>(counters->units);
        return text;
      });
  rec.ops = static_cast<double>(traced_units);
  if (!same) {
    report.FailCheck("traced replay differing from RunBatch", traced_units);
    return;
  }
  AddReplayLayers(rec, o, v, report);
  v.WriteTo(report);
}

namespace {

// The optimize/adapt loop shared by both workloads: runs `run(i)` over
// specs 0, 1, ... until the busy time reaches the budget.
struct SpecLoop {
  WindowedThroughput rate;
  std::int64_t bad = 0;
  std::vector<std::string> results;  // the first kKeptResults, in spec order
};

template <typename RunSpec>
SpecLoop LoopSpecs(double budget_s, TimedBackend& timed, RunSpec&& run) {
  SpecLoop loop;
  for (std::size_t i = 0;
       static_cast<double>(loop.rate.busy_ns()) < budget_s * kNsPerSecond;
       ++i) {
    std::int64_t ops = 0;
    const std::int64_t cpu_before = ProcessCpuUs();
    const std::int64_t start = NowNs();
    const JsonValue result = run(i, &ops);
    if (loop.rate.Add(ops, NowNs() - start, ProcessCpuUs() - cpu_before)) {
      timed.CloseWindow();
    }
    loop.bad += BadProbabilities(result);
    if (loop.results.size() < kKeptResults) loop.results.push_back(result.ToString());
  }
  return loop;
}

void ReportSpecLoop(const Options& o, const SpecLoop& loop, double peak_rss_mb,
                    const Latencies& latency, const char* op_name,
                    Report& report) {
  NoteLatencies(latency, report);
  report.Note("ran " + std::to_string(loop.rate.pieces()) + " specs, " +
              std::to_string(loop.rate.ops()) + " " + op_name +
              "; spec 0 result digest " + Digest(loop.results.front()));
  NoteThroughput(loop.rate, report);
  if (!o.trace) {
    report.Set("cpu_us_per_op", loop.rate.cpu_us_per_op(), "us");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
  }
}

// The timed loop's wall-clock figures and CPU use, for the traced run.
void AddRunLayers(const Options& o, const SpecLoop& loop,
                  const Latencies& latency, LayerValues& v) {
  v["run.ops_per_s"] = loop.rate.median();
  v["run.p50_ms"] = latency.PercentileMs(0.5);
  v["proc.cpu_util"] = Ratio(static_cast<double>(loop.rate.cpu_us()) * 1e3,
                             static_cast<double>(loop.rate.busy_ns()) *
                                 static_cast<double>(o.nproc));
}

std::int64_t Field(const JsonValue& result, const char* name) {
  const JsonValue* field = result.Find(name);
  return field != nullptr && field->is_number()
             ? static_cast<std::int64_t>(field->AsDouble())
             : 0;
}

// optimize-grid / adapt-closed-loop reconciliation: the first specs through
// SyncEngineBackend at pool width 1 against the same specs through a
// TracedBackend, each run under a `root_span`. True when every pass
// reproduces the timed loop's results byte for byte.
template <typename Spec, typename RunSpec>
bool ReconcileSpecs(Reconciliation& rec, const std::vector<Spec>& specs,
                    const SpecLoop& loop, const char* root_span,
                    const char* grid_span, const char* validate_span,
                    const char* ops_field, std::int64_t* bytes, RunSpec&& run) {
  std::string expected;
  for (std::size_t i = 0; i < specs.size(); ++i) expected += loop.results[i] + "\n";
  std::int64_t ops = 0;
  bool matches_loop = true;
  const bool same = Reconcile(
      rec,
      [&](const Timed& timed) {
        engine::BatchEngine serial(PoolWidth(1));
        opt::SyncEngineBackend backend(serial);
        std::string text;
        timed([&] {
          for (const Spec& spec : specs) text += run(backend, spec).ToString() + "\n";
        });
        matches_loop = matches_loop && text == expected;
        return text;
      },
      [&](const Timed& timed, ReplayCounters* counters) {
        ReplayEngine replay;
        TracedBackend backend(replay, grid_span, validate_span);
        std::string text;
        timed([&] {
          for (const Spec& spec : specs) {
            JsonValue result;
            {
              ScopedSpan span(root_span);
              result = run(backend, spec);
            }
            ops += Field(result, ops_field);
            text += result.ToString() + "\n";
          }
        });
        *counters = replay.counters();
        *bytes += backend.bytes();
        return text;
      });
  rec.ops = static_cast<double>(ops);
  return same && matches_loop;
}

opt::OptimizeSpec OptimizeSpecFor(std::uint64_t seed, std::size_t i) {
  return opt::ParseOptimizeSpec(sparsedet::ParseJson(OptimizeSpecJson(seed, i)));
}

adapt::AdaptSpec AdaptSpecFor(std::uint64_t seed, std::size_t i) {
  return adapt::ParseAdaptSpec(sparsedet::ParseJson(AdaptSpecJson(seed, i)));
}

}  // namespace

void RunOptimizeGrid(const Options& o, Report& report) {
  // The whole run, pool included, on one CPU: each inner batch is a few
  // milliseconds of small units, and waking pool workers on other vCPUs of
  // a shared virtual host made the CPU time per candidate follow the
  // host's load (in alternating runs: 115-126 us unpinned, 94-98 pinned).
  const PinToOneCpu pin;
  auto pool = std::make_unique<engine::BatchEngine>(PoolWidth(o.nproc));
  auto backend = std::make_unique<opt::SyncEngineBackend>(*pool);
  TimedBackend timed(*backend);
  report.Ready(static_cast<double>(ProcessCpuUs()) / 1e6);
  if (o.setup_only) return;

  const SpecLoop loop = LoopSpecs(
      o.trace ? o.seconds / 2.0 : o.seconds, timed,
      [&](std::size_t i, std::int64_t* ops) {
        const opt::OptimizeSpec spec = OptimizeSpecFor(o.seed, i);
        timed.MarkRunStart();
        JsonValue result = opt::Optimizer(spec, timed).Run();
        *ops = Field(result, "evaluated");
        return result;
      });
  const double peak_rss_mb = static_cast<double>(PeakRssKib("self")) / 1024.0;
  // Run-to-run check: the first specs again on the now-warm engine.
  std::int64_t differing = 0;
  for (std::size_t i = 0; i < std::min(kOptimizeCheckSpecs, loop.results.size());
       ++i) {
    const JsonValue again = opt::Optimizer(OptimizeSpecFor(o.seed, i), *backend).Run();
    if (again.ToString() != loop.results[i]) ++differing;
  }
  backend.reset();
  pool.reset();
  report.Count(loop.rate.ops(), loop.bad + differing);
  if (loop.bad > 0) report.FailCheck("out-of-range detection_probability", loop.bad);
  if (differing > 0) report.FailCheck("optimize results differing run to run", differing);
  if (!report.correct()) return;
  ReportSpecLoop(o, loop, peak_rss_mb, timed.per_line(), "candidates", report);
  if (!o.trace) return;

  LayerValues v;
  AddRunLayers(o, loop, timed.per_line(), v);
  std::vector<opt::OptimizeSpec> specs;
  for (std::size_t i = 0; i < std::min(kOptimizeTracedSpecs, loop.results.size());
       ++i) {
    specs.push_back(OptimizeSpecFor(o.seed, i));
  }
  Reconciliation rec;
  std::int64_t bytes = 0;
  const bool same = ReconcileSpecs(
      rec, specs, loop, "opt.run", "opt.backend", "opt.backend", "evaluated",
      &bytes, [](opt::SolveBackend& backend, const opt::OptimizeSpec& spec) {
        return opt::Optimizer(spec, backend).Run();
      });
  if (!same) {
    report.FailCheck("optimize results differing across pool width or replay",
                     static_cast<std::int64_t>(specs.size()));
    return;
  }
  v["opt.inproc_bytes_per_op"] = Ratio(static_cast<double>(bytes), rec.ops);
  AddReplayLayers(rec, o, v, report);
  v.WriteTo(report);
}

void RunAdaptClosedLoop(const Options& o, Report& report) {
  auto pool = std::make_unique<engine::BatchEngine>(PoolWidth(o.nproc));
  auto backend = std::make_unique<opt::SyncEngineBackend>(*pool);
  TimedBackend timed(*backend);
  report.Ready(static_cast<double>(ProcessCpuUs()) / 1e6);
  if (o.setup_only) return;

  std::int64_t not_held = 0;
  const SpecLoop loop = LoopSpecs(
      o.trace ? o.seconds / 2.0 : o.seconds, timed,
      [&](std::size_t i, std::int64_t* ops) {
        const adapt::AdaptSpec spec = AdaptSpecFor(o.seed, i);
        timed.MarkRunStart();
        JsonValue result = adapt::AdaptRun(spec, timed);
        *ops = Field(result, "epochs_run");
        const JsonValue* held = result.Find("held");
        if (held == nullptr || !held->is_bool() || !held->AsBool()) ++not_held;
        return result;
      });
  const double peak_rss_mb = static_cast<double>(PeakRssKib("self")) / 1024.0;
  std::int64_t differing = 0;
  for (std::size_t i = 0; i < std::min(kAdaptCheckSpecs, loop.results.size()); ++i) {
    if (adapt::AdaptRun(AdaptSpecFor(o.seed, i), *backend).ToString() !=
        loop.results[i]) {
      ++differing;
    }
  }
  backend.reset();
  pool.reset();
  report.Count(loop.rate.ops(), loop.bad + differing + not_held);
  if (loop.bad > 0) report.FailCheck("out-of-range detection_probability", loop.bad);
  if (not_held > 0) report.FailCheck("adapt runs reporting held: false", not_held);
  if (differing > 0) report.FailCheck("adapt results differing run to run", differing);
  if (!report.correct()) return;
  ReportSpecLoop(o, loop, peak_rss_mb, timed.per_epoch(), "epochs", report);
  if (!o.trace) return;

  LayerValues v;
  AddRunLayers(o, loop, timed.per_epoch(), v);
  std::vector<adapt::AdaptSpec> specs;
  for (std::size_t i = 0; i < std::min(kAdaptTracedSpecs, loop.results.size());
       ++i) {
    specs.push_back(AdaptSpecFor(o.seed, i));
  }
  Reconciliation rec;
  std::int64_t bytes = 0;
  const bool same = ReconcileSpecs(
      rec, specs, loop, "adapt.run", "adapt.grid", "adapt.validate",
      "epochs_run", &bytes,
      [](opt::SolveBackend& backend, const adapt::AdaptSpec& spec) {
        return adapt::AdaptRun(spec, backend);
      });
  if (!same) {
    report.FailCheck("adapt results differing across pool width or replay",
                     static_cast<std::int64_t>(specs.size()));
    return;
  }
  v["opt.inproc_bytes_per_op"] = Ratio(static_cast<double>(bytes), rec.ops);
  AddReplayLayers(rec, o, v, report);
  v.WriteTo(report);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"server.self_us", "us"},
      {"server.bytes_per_op", "B"},
      {"server.p50_ms_low", "ms"},
      {"server.p99_ms_low", "ms"},
      {"server.p99_ms_high", "ms"},
      {"engine.submit_us", "us"},
      {"engine.emit_us", "us"},
      {"engine.parse_request_us", "us"},
      {"engine.plan_us", "us"},
      {"engine.cache_us", "us"},
      {"engine.compose_us", "us"},
      {"engine.result_cache_hit_ratio", "ratio"},
      {"engine.result_cache_lookups", "count"},
      {"engine.units_per_op", "count"},
      {"common.json_parse_us", "us"},
      {"common.json_render_us", "us"},
      {"common.json_numbers_per_op", "count"},
      {"common.json_render_ns_per_number", "ns"},
      {"core.solve_us_per_unit", "us"},
      {"core.units", "count"},
      {"prob.memo_hit_ratio", "ratio"},
      {"prob.memo_lookups", "count"},
      {"prob.memo_evictions", "count"},
      {"sim.us_per_trial", "us"},
      {"sim.trials", "count"},
      {"opt.self_us_per_op", "us"},
      {"opt.backend_us_per_op", "us"},
      {"opt.inproc_bytes_per_op", "B"},
      {"adapt.self_ms_per_op", "ms"},
      {"adapt.grid_ms_per_op", "ms"},
      {"adapt.validate_ms_per_op", "ms"},
      {"proc.cpu_util", "ratio"},
      {"run.ops_per_s", "op/s"},
      {"run.p50_ms", "ms"},
      {"gen.late_ms_p99", "ms"},
      {"trace.ops", "count"},
      {"trace.spans", "count"},
      {"trace.layer_sum_us_per_op", "us"},
      {"trace.untraced_cpu_us_per_op", "us"},
      {"trace.untraced_wall_us_per_op", "us"},
      {"trace.reconcile_error", "ratio"},
      {"trace.overhead_s", "s"},
      {"trace.largest_layer_share", "ratio"},
  };
  return kMetrics;
}

void Report::Ready(double setup_cpu_s) const {
  std::cout << "READY " << std::to_string(setup_cpu_s) << std::endl;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::Note(const std::string& text) const {
  std::cout << "# " << text << std::endl;
}

void Report::Count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::FailCheck(const std::string& what, std::int64_t count) {
  Note("CHECK FAILED: " + what + " (" + std::to_string(count) + ")");
  correct_ = false;
}

std::string Report::ToJson() const {
  JsonValue metrics = JsonValue::Object();
  if (correct_) {
    for (const auto& [name, metric] : metrics_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("value", metric.value).Set("unit", metric.unit);
      metrics.Set(name, std::move(entry));
    }
  }
  // A failed check voids the whole run: every op it attempted counts as
  // failed.
  const std::int64_t attempted = std::max<std::int64_t>(attempted_, 1);
  JsonValue json = JsonValue::Object();
  json.Set("correct", correct_)
      .Set("attempted", attempted)
      .Set("failed", correct_ ? failed_ : attempted)
      .Set("metrics", std::move(metrics));
  return json.ToString();
}

}  // namespace perfbench
