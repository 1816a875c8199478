// Tests for the batch evaluation engine: worker pool, LRU result cache,
// request protocol, and the end-to-end determinism / error-isolation
// contracts of BatchEngine.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "engine/cache.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "prob/memo_cache.h"

namespace sparsedet::engine {
namespace {

// ---- WorkerPool -----------------------------------------------------------

TEST(WorkerPool, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, WaitIsReusable) {
  WorkerPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(WorkerPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

// ---- LruResultCache -------------------------------------------------------

std::shared_ptr<const JsonValue> Value(int n) {
  return std::make_shared<const JsonValue>(n);
}

TEST(LruResultCache, HitMissAndCounters) {
  LruResultCache cache(8);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", Value(1));
  const auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ToString(), "1");
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(LruResultCache, EvictsLeastRecentlyUsed) {
  LruResultCache cache(2);
  cache.Put("a", Value(1));
  cache.Put("b", Value(2));
  EXPECT_NE(cache.Get("a"), nullptr);  // "a" is now most recent
  cache.Put("c", Value(3));            // evicts "b"
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruResultCache, ZeroCapacityDisables) {
  LruResultCache cache(0);
  cache.Put("a", Value(1));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- Request protocol -----------------------------------------------------

Request ParseLine(const std::string& text) {
  return ParseRequest(ParseJson(text), 1);
}

TEST(Request, ParsesScenarioAndOptions) {
  const Request r = ParseLine(
      R"({"id": "a", "op": "analyze",
          "params": {"nodes": 240, "speed": 10, "k": 5},
          "options": {"gh": 4, "normalize": false}})");
  EXPECT_EQ(r.op, RequestOp::kAnalyze);
  EXPECT_EQ(r.params.num_nodes, 240);
  EXPECT_DOUBLE_EQ(r.params.target_speed, 10.0);
  EXPECT_EQ(r.options.gh, 4);
  EXPECT_FALSE(r.options.normalize);
  EXPECT_EQ(r.id.AsString(), "a");
}

TEST(Request, DefaultsIdToLineNumber) {
  const Request r = ParseRequest(ParseJson(R"({"op": "analyze"})"), 17);
  EXPECT_EQ(r.id.ToString(), "17");
}

TEST(Request, RejectsUnknownAndMistypedFields) {
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "frobs": 1})"),
               InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "params": {"nodez": 10}})"),
               InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "params": {"nodes": "x"}})"),
               InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "params": {"nodes": 1.5}})"),
               InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"op": "frobnicate"})"), InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"params": {}})"), InvalidArgument);  // no op
  EXPECT_THROW(ParseLine(R"([1, 2])"), InvalidArgument);  // not an object
  // Op-specific sections are rejected on the wrong op.
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "sweep": {"param": "k"}})"),
               InvalidArgument);
  EXPECT_THROW(ParseLine(R"({"op": "simulate", "options": {"gh": 3}})"),
               InvalidArgument);
  // Out-of-domain scenario parameters are caught at parse time.
  EXPECT_THROW(ParseLine(R"({"op": "analyze", "params": {"rc": 100}})"),
               InvalidArgument);
  // A seed must be an integer a double carries exactly: 1e30 would be an
  // undefined double -> uint64_t cast, and 2^53 + 1 would silently run as
  // 2^53.
  for (const char* line :
       {R"({"op": "simulate", "sim": {"seed": 1e30, "trials": 1}})",
        R"({"op": "simulate",
            "sim": {"seed": 9007199254740993, "trials": 1}})"}) {
    try {
      ParseLine(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(),
                   "request field \"sim.seed\": expected a non-negative "
                   "integer");
    }
  }
}

TEST(Request, CanonicalKeyNormalizesNumberFormatting) {
  const Request a =
      ParseLine(R"({"op": "analyze", "params": {"speed": 10}})");
  const Request b =
      ParseLine(R"({"op": "analyze", "params": {"speed": 10.0}})");
  EXPECT_EQ(CanonicalKey(ExpandRequest(a)[0]),
            CanonicalKey(ExpandRequest(b)[0]));
  const Request c =
      ParseLine(R"({"op": "analyze", "params": {"speed": 12}})");
  EXPECT_NE(CanonicalKey(ExpandRequest(a)[0]),
            CanonicalKey(ExpandRequest(c)[0]));
}

// Result-cache keys, recorded before the key builder moved from ostream to
// string appends. A key change alters no response byte, only which units
// share a cache entry, so no golden suite would notice it.
TEST(Request, CanonicalKeysArePinned) {
  const auto key = [](const std::string& line, std::size_t unit) {
    const std::vector<WorkUnit> units = ExpandRequest(ParseLine(line));
    return unit < units.size() ? CanonicalKey(units[unit]) : "<no unit>";
  };
  // The docs/ENGINE.md example.
  EXPECT_EQ(key(R"({"op":"analyze","params":{"nodes":240}})", 0),
            "analyze|W=32000|H=32000|N=240|Rs=1000|Rc=6000|Pd=0.9|t=60|V=10|"
            "M=20|k=5|gh=3|g=3|norm=1|rel=1");
  EXPECT_EQ(key(R"({"op":"sweep","params":{"speed":4.5,"rs":812.5},
                    "sweep":{"param":"pd","from":0.55,"to":0.7,"step":0.05}})",
                1),
            "point|W=32000|H=32000|N=60|Rs=812.5|Rc=6000|Pd=0.6000000000000001|"
            "t=60|V=4.5|M=20|k=5|gh=3|g=3|norm=1|rel=1");
  EXPECT_EQ(key(R"({"op":"latency",
                    "params":{"nodes":120,"field_width":20000.5,"period":45.25,
                              "window":12,"k":3},
                    "options":{"gh":4,"g":5,"normalize":false,
                               "reliability":0.95}})",
                0),
            "latency|W=20000.5|H=32000|N=120|Rs=1000|Rc=6000|Pd=0.9|t=45.25|"
            "V=10|M=12|k=3|gh=4|g=5|norm=0|rel=0.95");
  EXPECT_EQ(key(R"({"op":"fa","params":{"pd":0.875},
                    "fa":{"pf":0.0001,"max_k":6}})",
                0),
            "fa|W=32000|H=32000|N=60|Rs=1000|Rc=6000|Pd=0.875|t=60|V=10|M=20|"
            "k=5|pf=0.0001|maxk=6");
  EXPECT_EQ(key(R"({"op":"simulate","params":{"nodes":90,"speed":7.25,"rc":1e4},
                    "sim":{"trials":500,"seed":9007199254740991,"pf":1e-05,
                           "reliability":0.9,"h":2,"motion":"random-walk",
                           "geometry":"planar","death":0.01,"loss":0.125}})",
                0),
            "sim|W=32000|H=32000|N=90|Rs=1000|Rc=10000|Pd=0.9|t=60|V=7.25|"
            "M=20|k=5|trials=500|seed=9007199254740991|pf=1e-05|srel=0.9|h=2|"
            "motion=random-walk|geom=planar|death=0.01|loss=0.125");
}

TEST(Request, SweepExpandsToOneUnitPerPoint) {
  const Request r = ParseLine(
      R"({"op": "sweep",
          "sweep": {"param": "nodes", "from": 60, "to": 120, "step": 30}})");
  const std::vector<WorkUnit> units = ExpandRequest(r);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].params.num_nodes, 60);
  EXPECT_EQ(units[1].params.num_nodes, 90);
  EXPECT_EQ(units[2].params.num_nodes, 120);
  // A sweep point shares its cache key with the same point of any other
  // sweep over the same scenario.
  const Request wider = ParseLine(
      R"({"op": "sweep",
          "sweep": {"param": "nodes", "from": 90, "to": 150, "step": 30}})");
  EXPECT_EQ(CanonicalKey(units[1]), CanonicalKey(ExpandRequest(wider)[0]));
}

// ---- BatchEngine ----------------------------------------------------------

std::string RunBatchText(const std::string& input,
                         const EngineOptions& options,
                         bool with_stats = true) {
  BatchEngine engine(options);
  std::istringstream in(input);
  std::ostringstream out;
  engine.RunBatch(in, out);
  if (with_stats) engine.WriteStatsLine(out);
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

const char* kMixedBatch =
    R"({"id": "a1", "op": "analyze", "params": {"nodes": 240}})"
    "\n"
    R"({"id": "s1", "op": "sweep", "sweep": {"param": "nodes", "from": 60, "to": 180, "step": 60}})"
    "\n"
    R"({"id": "l1", "op": "latency", "params": {"nodes": 120}})"
    "\n"
    R"({"id": "f1", "op": "fa", "params": {"nodes": 100}, "fa": {"pf": 0.001, "max_k": 4}})"
    "\n"
    R"({"id": "m1", "op": "simulate", "params": {"nodes": 120}, "sim": {"trials": 200, "seed": 7}})"
    "\n";

TEST(BatchEngine, OutputIsByteIdenticalAcrossThreadCounts) {
  EngineOptions one;
  one.threads = 1;
  EngineOptions eight;
  eight.threads = 8;
  const std::string a = RunBatchText(kMixedBatch, one);
  const std::string b = RunBatchText(kMixedBatch, eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(Lines(a).size(), 6u);  // 5 responses + stats
}

TEST(BatchEngine, ResponsesComeBackInInputOrderWithEchoedIds) {
  EngineOptions options;
  options.threads = 4;
  const std::vector<std::string> lines =
      Lines(RunBatchText(kMixedBatch, options, /*with_stats=*/false));
  ASSERT_EQ(lines.size(), 5u);
  const std::vector<std::string> ids = {"a1", "s1", "l1", "f1", "m1"};
  const std::vector<std::string> ops = {"analyze", "sweep", "latency", "fa",
                                        "simulate"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue response = ParseJson(lines[i]);
    EXPECT_EQ(response.Find("id")->AsString(), ids[i]);
    EXPECT_EQ(response.Find("op")->AsString(), ops[i]);
    EXPECT_NE(response.Find("result"), nullptr);
  }
}

TEST(BatchEngine, SecondPassIsServedFromTheCache) {
  EngineOptions options;
  options.threads = 4;
  BatchEngine engine(options);
  std::istringstream first_in(kMixedBatch);
  std::ostringstream first_out;
  engine.RunBatch(first_in, first_out);
  const std::uint64_t misses_after_first = engine.cache().counters().misses;
  EXPECT_EQ(engine.cache().counters().hits, 0u);

  std::istringstream second_in(kMixedBatch);
  std::ostringstream second_out;
  engine.RunBatch(second_in, second_out);
  // Identical results, no recomputation: every unit of the second pass hits.
  EXPECT_EQ(first_out.str(), second_out.str());
  EXPECT_EQ(engine.cache().counters().misses, misses_after_first);
  EXPECT_GT(engine.cache().counters().hits, 0u);
  EXPECT_EQ(engine.stats().requests, 10u);
  EXPECT_EQ(engine.stats().errors, 0u);
}

TEST(BatchEngine, OverlappingSweepsSharePointEvaluations) {
  const std::string batch =
      R"({"op": "sweep", "sweep": {"param": "nodes", "from": 60, "to": 120, "step": 30}})"
      "\n"
      R"({"op": "sweep", "sweep": {"param": "nodes", "from": 90, "to": 150, "step": 30}})"
      "\n";
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  std::istringstream in(batch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  // 6 units planned, but nodes=90 and nodes=120 are shared: 4 evaluations.
  EXPECT_EQ(engine.stats().units, 6u);
  EXPECT_EQ(engine.cache().counters().misses, 4u);
  EXPECT_EQ(engine.stats().coalesced, 2u);
}

TEST(BatchEngine, IdenticalRequestsInOneBatchCoalesce) {
  const std::string batch =
      R"({"op": "analyze", "params": {"nodes": 200}})"
      "\n"
      R"({"op": "analyze", "params": {"nodes": 200}})"
      "\n";
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  std::istringstream in(batch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  EXPECT_EQ(engine.cache().counters().misses, 1u);
  EXPECT_EQ(engine.stats().coalesced, 1u);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  // Same result body on both lines (ids differ: the line numbers).
  EXPECT_EQ(ParseJson(lines[0]).Find("result")->ToString(),
            ParseJson(lines[1]).Find("result")->ToString());
}

TEST(BatchEngine, MalformedLinesAreIsolatedErrors) {
  const std::string batch =
      R"({"id": "good1", "op": "analyze"})"
      "\n"
      "{this is not json\n"
      R"({"id": "bad-op", "op": "frobnicate"})"
      "\n"
      R"({"id": "bad-scenario", "op": "analyze", "params": {"rc": 1}})"
      "\n"
      R"({"id": "good2", "op": "analyze", "params": {"nodes": 100}})"
      "\n";
  EngineOptions options;
  options.threads = 4;
  BatchEngine engine(options);
  std::istringstream in(batch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(ParseJson(lines[0]).Find("result"), nullptr);
  EXPECT_NE(ParseJson(lines[1]).Find("error"), nullptr);
  EXPECT_EQ(ParseJson(lines[1]).Find("line")->ToString(), "2");
  EXPECT_NE(ParseJson(lines[2]).Find("error"), nullptr);
  EXPECT_EQ(ParseJson(lines[2]).Find("id")->AsString(), "bad-op");
  EXPECT_NE(ParseJson(lines[3]).Find("error"), nullptr);
  EXPECT_NE(ParseJson(lines[4]).Find("result"), nullptr);
  EXPECT_EQ(engine.stats().ok, 2u);
  EXPECT_EQ(engine.stats().errors, 3u);
}

TEST(BatchEngine, ErrorTextCarriesNoSourceLocation) {
  // Check failures reach clients verbatim, so their text must not name the
  // server's source files: a non-object line, gh < g and M <= ms fail in
  // three different checks.
  const std::string batch =
      R"({"op":"analyze","params":{"nodes":-5}})"
      "\n"
      "[1,2]\n"
      R"({"op":"analyze","options":{"gh":2,"g":3}})"
      "\n"
      R"({"op":"analyze","params":{"window":1}})"
      "\n";
  const std::vector<std::string> lines =
      Lines(RunBatchText(batch, EngineOptions{}, /*with_stats=*/false));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            R"({"id":1,"line":1,"error":"precondition failed: )"
            R"((num_nodes >= 1) at least one sensor node is required"})");
  for (const std::string& line : lines) {
    const JsonValue response = ParseJson(line);
    const JsonValue* error = response.Find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->AsString().find(".cc:"), std::string::npos) << line;
  }
}

TEST(BatchEngine, UnorderedModeEmitsEveryResponseTagged) {
  EngineOptions options;
  options.threads = 4;
  options.unordered = true;
  const std::vector<std::string> lines =
      Lines(RunBatchText(kMixedBatch, options, /*with_stats=*/false));
  ASSERT_EQ(lines.size(), 5u);
  std::vector<std::string> ids;
  for (const std::string& line : lines) {
    ids.push_back(ParseJson(line).Find("id")->AsString());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"a1", "f1", "l1", "m1", "s1"}));
}

TEST(BatchEngine, CacheEvictionIsBoundedAndCounted) {
  std::ostringstream batch;
  for (int nodes = 60; nodes < 60 + 10; ++nodes) {
    batch << R"({"op": "analyze", "params": {"nodes": )" << nodes << "}}\n";
  }
  EngineOptions options;
  options.threads = 2;
  options.cache_capacity = 3;
  BatchEngine engine(options);
  std::istringstream in(batch.str());
  std::ostringstream out;
  engine.RunBatch(in, out);
  EXPECT_EQ(engine.cache().size(), 3u);
  EXPECT_EQ(engine.cache().counters().evictions, 7u);
}

TEST(BatchEngine, StatsLineReportsCountersAsJson) {
  EngineOptions options;
  options.threads = 2;
  const std::vector<std::string> lines = Lines(RunBatchText(
      R"({"op": "analyze"})"
      "\n"
      R"({"op": "analyze"})"
      "\n",
      options));
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue stats = ParseJson(lines.back());
  const JsonValue* body = stats.Find("stats");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->Find("requests")->ToString(), "2");
  EXPECT_EQ(body->Find("ok")->ToString(), "2");
  const JsonValue* cache = body->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("misses")->ToString(), "1");
  EXPECT_EQ(cache->Find("hits")->ToString(), "0");
}

TEST(BatchEngine, ServeAnswersLineByLineAndSurvivesBadInput) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  std::istringstream in(
      R"({"id": "q1", "op": "analyze", "params": {"nodes": 120}})"
      "\n"
      "garbage\n"
      "\n"
      R"({"id": "q2", "op": "analyze", "params": {"nodes": 120}})"
      "\n");
  std::ostringstream out;
  engine.Serve(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u);  // blank line ignored
  EXPECT_EQ(ParseJson(lines[0]).Find("id")->AsString(), "q1");
  EXPECT_NE(ParseJson(lines[1]).Find("error"), nullptr);
  EXPECT_EQ(ParseJson(lines[2]).Find("id")->AsString(), "q2");
  // q2 is identical to q1 and is served from the cache.
  EXPECT_GT(engine.cache().counters().hits, 0u);
  EXPECT_EQ(ParseJson(lines[0]).Find("result")->ToString(),
            ParseJson(lines[2]).Find("result")->ToString());
}

TEST(BatchEngine, SimulateMatchesDirectEvaluationAndIsDeterministic) {
  const std::string batch =
      R"({"op": "simulate", "params": {"nodes": 140}, "sim": {"trials": 300, "seed": 11}})"
      "\n";
  EngineOptions one;
  one.threads = 1;
  EngineOptions four;
  four.threads = 4;
  EXPECT_EQ(RunBatchText(batch, one), RunBatchText(batch, four));
}

// ---- Observability --------------------------------------------------------

TEST(BatchEngine, ServeAnswersStatsCommandInStream) {
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  // The same request twice: the second is a cache hit, which the in-stream
  // stats snapshot must report without ending the session.
  std::istringstream in(
      R"({"id": "q1", "op": "analyze", "params": {"nodes": 120}})"
      "\n"
      R"({"id": "q2", "op": "analyze", "params": {"nodes": 120}})"
      "\n"
      R"({"cmd": "stats"})"
      "\n"
      R"({"id": "q3", "op": "analyze", "params": {"nodes": 120}})"
      "\n");
  std::ostringstream out;
  engine.Serve(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 4u);

  const JsonValue snapshot = ParseJson(lines[2]);
  const JsonValue* stats = snapshot.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("requests")->ToString(), "2");
  EXPECT_EQ(stats->Find("cache")->Find("hits")->ToString(), "1");
  EXPECT_EQ(stats->Find("cache")->Find("misses")->ToString(), "1");

  // The full registry rides along: engine counters, the queue-depth gauge
  // and per-phase latency histograms.
  const JsonValue* metrics = snapshot.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  bool saw_queue_depth = false;
  for (const JsonValue& gauge : metrics->Find("gauges")->Items()) {
    if (gauge.Find("name")->AsString() == "engine_queue_depth") {
      saw_queue_depth = true;
    }
  }
  EXPECT_TRUE(saw_queue_depth);
  bool saw_solve_samples = false;
  for (const JsonValue& histogram : metrics->Find("histograms")->Items()) {
    if (histogram.Find("name")->AsString() != "sparsedet_phase_duration_ns") {
      continue;
    }
    ASSERT_NE(histogram.Find("p50_ns"), nullptr);
    ASSERT_NE(histogram.Find("p90_ns"), nullptr);
    ASSERT_NE(histogram.Find("p99_ns"), nullptr);
    if (histogram.Find("labels")->Find("phase")->AsString() == "solve" &&
        histogram.Find("count")->ToString() == "1") {
      saw_solve_samples = true;  // one computed unit so far
    }
  }
  EXPECT_TRUE(saw_solve_samples);

  // The stream keeps serving after the command, and the cmd line did not
  // touch the request counters.
  EXPECT_EQ(ParseJson(lines[3]).Find("id")->AsString(), "q3");
  EXPECT_EQ(engine.stats().requests, 3u);
}

TEST(BatchEngine, ServeRejectsUnknownCommands) {
  EngineOptions options;
  options.threads = 1;
  BatchEngine engine(options);
  std::istringstream in(R"({"cmd": "selfdestruct"})"
                        "\n");
  std::ostringstream out;
  engine.Serve(in, out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(ParseJson(lines[0]).Find("error"), nullptr);
  EXPECT_EQ(engine.stats().requests, 0u);
}

TEST(BatchEngine, TraceObjectAppearsOnlyWhenEnabled) {
  const std::string batch =
      R"({"id": "a", "op": "analyze", "params": {"nodes": 100}})"
      "\n"
      R"({"id": "b", "op": "analyze", "params": {"nodes": 100}})"
      "\n";
  EngineOptions plain;
  plain.threads = 2;
  for (const std::string& line :
       Lines(RunBatchText(batch, plain, /*with_stats=*/false))) {
    EXPECT_EQ(ParseJson(line).Find("trace"), nullptr);
  }

  EngineOptions traced = plain;
  traced.trace = true;
  const std::vector<std::string> lines =
      Lines(RunBatchText(batch, traced, /*with_stats=*/false));
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = ParseJson(lines[0]);
  const JsonValue* first_trace = first.Find("trace");
  ASSERT_NE(first_trace, nullptr);
  EXPECT_EQ(first_trace->Find("trace_id")->ToString(), "1");
  EXPECT_EQ(
      first_trace->Find("units")->Items()[0].Find("source")->AsString(),
      "computed");
  // Both requests are planned before either is emitted, so the duplicate
  // joins the in-flight unit rather than hitting the cache.
  const JsonValue second = ParseJson(lines[1]);
  EXPECT_EQ(second.Find("trace")->Find("trace_id")->ToString(), "2");
  EXPECT_EQ(second.Find("trace")
                ->Find("units")
                ->Items()[0]
                .Find("source")
                ->AsString(),
            "coalesced");
}

TEST(BatchEngine, TraceDisabledKeepsOutputByteIdentical) {
  EngineOptions plain;
  plain.threads = 2;
  EngineOptions with_file = plain;
  with_file.trace_file = testing::TempDir() + "sparsedet_spans_test.jsonl";
  // The span file is a side channel: the response stream (stats line
  // included) must not change byte for byte when only the file is on.
  EXPECT_EQ(RunBatchText(kMixedBatch, plain),
            RunBatchText(kMixedBatch, with_file));
}

TEST(BatchEngine, TraceFileRecordsCacheHitsOnSecondPass) {
  const std::string path = testing::TempDir() + "sparsedet_trace_test.jsonl";
  EngineOptions options;
  options.threads = 2;
  options.trace_file = path;
  {
    BatchEngine engine(options);
    for (int pass = 0; pass < 2; ++pass) {
      std::istringstream in(
          R"({"id": "p", "op": "analyze", "params": {"nodes": 90}})"
          "\n");
      std::ostringstream out;
      engine.RunBatch(in, out);
    }
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::vector<std::string> spans;
  std::string line;
  while (std::getline(file, line)) spans.push_back(line);
  ASSERT_EQ(spans.size(), 2u);
  const JsonValue first = ParseJson(spans[0]);
  EXPECT_EQ(first.Find("trace_id")->ToString(), "1");
  EXPECT_EQ(first.Find("id")->AsString(), "p");
  EXPECT_EQ(first.Find("op")->AsString(), "analyze");
  EXPECT_EQ(
      first.Find("units")->Items()[0].Find("source")->AsString(),
      "computed");
  EXPECT_EQ(ParseJson(spans[1])
                .Find("units")
                ->Items()[0]
                .Find("source")
                ->AsString(),
            "cache_hit");
}

TEST(BatchEngine, MetricsSnapshotCountsPhaseSamples) {
  // The solver memo cache is process-wide; start cold so the analyze units
  // actually drive the M-S stages (a memo hit skips them by design).
  prob::MemoCache::Global().Clear();
  EngineOptions options;
  options.threads = 2;
  BatchEngine engine(options);
  std::istringstream in(kMixedBatch);
  std::ostringstream out;
  engine.RunBatch(in, out);
  const obs::RegistrySnapshot snapshot = engine.MetricsSnapshot();

  std::uint64_t solve_samples = 0;
  std::uint64_t ms_head_samples = 0;
  for (const obs::RegistrySnapshot::HistogramValue& h : snapshot.histograms) {
    if (h.name != "sparsedet_phase_duration_ns" || h.labels.empty()) continue;
    if (h.labels.front().second == "solve") {
      solve_samples = h.histogram.total;
    } else if (h.labels.front().second == "ms_head") {
      ms_head_samples = h.histogram.total;
    }
  }
  // Every computed unit passes through the solve phase, and the analyze /
  // sweep units drive the M-S solver's Head stage underneath.
  EXPECT_EQ(solve_samples, engine.cache().counters().misses);
  EXPECT_GT(ms_head_samples, 0u);
}

}  // namespace
}  // namespace sparsedet::engine
