#include "engine/engine.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/framing.h"
#include "common/parallel.h"
#include "engine/request.h"
#include "obs/timer.h"
#include "prob/memo_cache.h"

namespace sparsedet::engine {

struct BatchEngine::PendingUnit {
  std::string key;
  std::shared_ptr<const JsonValue> result;  // set by the worker on success
  std::string error;                        // set by the worker on failure
  std::string error_code;  // structured category for resilience failures
  // The owning request's token when it carries a deadline; per-attempt
  // tokens chain off it so cancelling the request stops every attempt.
  std::shared_ptr<resilience::CancelToken> request_token;
  // Written by the worker before it publishes `done` (so reading them
  // after observing done under done_mutex_ is race-free).
  std::int64_t queue_wait_ns = 0;
  std::int64_t solve_ns = 0;
  int attempts = 1;
  bool done = false;      // guarded by done_mutex_
  bool inserted = false;  // coordinator-only: already in the cache
  // Async requests waiting on this unit, one entry per reference; the
  // worker that publishes it completes those it was the last unit of.
  // Guarded by done_mutex_.
  std::vector<std::shared_ptr<PendingRequest>> waiters;
};

struct BatchEngine::PendingRequest {
  JsonValue id;  // echoed in the response; defaults to the line number
  int line = 0;
  std::int64_t planned_ns = 0;  // plan-time stamp; end-to-end latency base
  std::string parse_error;  // nonempty: request never got units
  std::string plan_error_code;  // structured code for plan-time rejections
  Request request;
  obs::RequestSpan span;
  // Set when the request carries a deadline; cancelled on expiry.
  std::shared_ptr<resilience::CancelToken> token;

  // Each unit is either resolved from the cache at plan time or pending on
  // the pool (possibly shared with other requests that need the same key).
  struct UnitRef {
    std::shared_ptr<PendingUnit> pending;
    std::shared_ptr<const JsonValue> cached;
    // The cached result's rendered bytes, when its entry has them.
    std::shared_ptr<const std::string> cached_bytes;
  };
  std::vector<UnitRef> units;  // parallel to span.units

  // Async only: the submitter's callback, and the number of references to
  // units still pending (guarded by done_mutex_).
  ResponseCallback done;
  int remaining = 0;
};

namespace {

// Rough elementary-operation count for one unit — enough to split "tiny
// analytical solve" from "heavy simulation or scaled-up scenario", not a
// schedule. Analytical solves propagate an O(M*Z)-state chain M times over
// roughly N-proportional stage work; simulation runs `trials` windows of M
// periods with a per-period constant in the dozens of operations.
std::size_t UnitCostProxy(const WorkUnit& unit) {
  const std::size_t n =
      static_cast<std::size_t>(std::max(unit.params.num_nodes, 1));
  const std::size_t m =
      static_cast<std::size_t>(std::max(unit.params.window_periods, 1));
  if (unit.op == RequestOp::kSimulate) {
    return 64 * static_cast<std::size_t>(std::max(unit.sim.trials, 1)) * m;
  }
  return n * m * m;
}

// Units whose cost proxy falls below this (~one millisecond of solve
// work) share pool tasks; heavier units keep a task to themselves for
// latency. Grouping only re-buckets which worker runs which unit, so every
// output byte is the same either way.
constexpr std::size_t kGroupCostThreshold = std::size_t{1} << 20;

// Group chunks aim for at least this many units each; fewer units than
// this per available worker and the dispatch overhead being amortized is
// already negligible.
constexpr std::size_t kGroupMinUnitsPerChunk = 16;

// The response line of a successful non-sweep request, around its result's
// rendered bytes: exactly what JsonValue renders for {"id", "op", "result"},
// since objects render field by field with no whitespace.
std::string ResultLine(const JsonValue& id, RequestOp op,
                       const std::string& result) {
  std::string line = "{\"id\":" + id.ToString() + ",\"op\":\"" + OpName(op) +
                     "\",\"result\":";
  line.reserve(line.size() + result.size() + 1);
  line += result;
  line += '}';
  return line;
}

WorkerPoolOptions MakePoolOptions(const EngineOptions& options,
                                  const EngineMetrics& metrics) {
  WorkerPoolOptions pool;
  pool.threads = options.threads;
  pool.queue_depth_gauge = metrics.queue_depth;
  pool.respawns_counter = metrics.worker_respawns;
  pool.watchdog_cancels_counter = metrics.watchdog_cancels;
  pool.stuck_after_ms = options.watchdog_stuck_ms;
  return pool;
}

}  // namespace

JsonValue EngineStats::ToJson(const LruResultCache& cache) const {
  JsonValue cache_json = JsonValue::Object();
  cache_json.Set("capacity", static_cast<std::int64_t>(cache.capacity()))
      .Set("size", static_cast<std::int64_t>(cache.size()))
      .Set("hits", static_cast<std::int64_t>(cache.counters().hits))
      .Set("misses", static_cast<std::int64_t>(cache.counters().misses))
      .Set("coalesced", static_cast<std::int64_t>(coalesced))
      .Set("evictions", static_cast<std::int64_t>(cache.counters().evictions));
  JsonValue body = JsonValue::Object();
  body.Set("requests", static_cast<std::int64_t>(requests))
      .Set("ok", static_cast<std::int64_t>(ok))
      .Set("errors", static_cast<std::int64_t>(errors))
      .Set("units", static_cast<std::int64_t>(units))
      .Set("cache", std::move(cache_json));
  JsonValue json = JsonValue::Object();
  json.Set("stats", std::move(body));
  return json;
}

EngineMetrics::EngineMetrics(obs::MetricsRegistry& registry)
    : requests(&registry.counter("engine_requests_total")),
      ok(&registry.counter("engine_responses_ok_total")),
      errors(&registry.counter("engine_responses_error_total")),
      units(&registry.counter("engine_units_total")),
      coalesced(&registry.counter("engine_units_coalesced_total")),
      queue_depth(&registry.gauge("engine_queue_depth")),
      queue_wait(&registry.phase(obs::Phase::kQueueWait)),
      cache_lookup(&registry.phase(obs::Phase::kCacheLookup)),
      solve(&registry.phase(obs::Phase::kSolve)),
      serialize(&registry.phase(obs::Phase::kSerialize)),
      deadline_exceeded(&registry.counter("engine_deadline_exceeded_total")),
      degraded(&registry.counter("engine_degraded_total")),
      cancelled_units(&registry.counter("engine_cancelled_units_total")),
      retries(&registry.counter("engine_unit_retries_total")),
      worker_aborts(&registry.counter("engine_worker_aborts_total")),
      worker_respawns(&registry.counter("engine_worker_respawns_total")),
      watchdog_cancels(&registry.counter("engine_watchdog_cancels_total")),
      overloaded(&registry.counter("engine_overloaded_total")),
      rejected_lines(&registry.counter("engine_rejected_lines_total")),
      injected_faults(&registry.counter("engine_injected_faults_total")),
      memo_hits(&registry.gauge("solver_memo_hits")),
      memo_misses(&registry.gauge("solver_memo_misses")),
      memo_entries(&registry.gauge("solver_memo_entries")),
      memo_bytes(&registry.gauge("solver_memo_bytes")),
      memo_evictions(&registry.gauge("solver_memo_evictions")) {}

BatchEngine::BatchEngine(const EngineOptions& options)
    : options_(options),
      prev_solver_threads_(SetSolverThreads(options.solver_threads)),
      metrics_(registry_),
      cache_(options.cache_capacity, registry_),
      pool_(MakePoolOptions(options, metrics_)) {
  prev_memo_capacity_ = prob::MemoCache::Global().capacity();
  prob::MemoCache::Global().SetCapacity(options_.memo_cache_entries);
  if (options_.slo.enabled()) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo, &registry_);
  }
  if (!options_.fault_config.empty()) {
    injector_ = std::make_unique<resilience::FaultInjector>(
        resilience::ParseFaultInjectorConfig(options_.fault_config),
        [this](const char*) { metrics_.injected_faults->Inc(); });
  }
  if (!options_.trace_file.empty()) {
    trace_out_.open(options_.trace_file, std::ios::out | std::ios::trunc);
    SPARSEDET_REQUIRE(trace_out_.good(),
                      "cannot open trace file " + options_.trace_file);
  }
  // Solver phase timers (M-S stages, Region(i) decomposition, MC trials)
  // reach this registry through the global install point.
  obs::InstallGlobalRegistry(&registry_);
}

BatchEngine::~BatchEngine() {
  StopAsync();
  obs::UninstallGlobalRegistry(&registry_);
  SetSolverThreads(prev_solver_threads_);
  prob::MemoCache::Global().SetCapacity(prev_memo_capacity_);
}

EngineStats BatchEngine::stats() const {
  EngineStats stats;
  stats.requests = metrics_.requests->Value();
  stats.ok = metrics_.ok->Value();
  stats.errors = metrics_.errors->Value();
  stats.units = metrics_.units->Value();
  stats.coalesced = metrics_.coalesced->Value();
  return stats;
}

obs::RegistrySnapshot BatchEngine::MetricsSnapshot() const {
  // Mirror the process-wide memo cache into the gauges so every snapshot
  // rendering (metrics-dump, Prometheus, {"cmd":"stats"}) sees it.
  const prob::MemoCacheStats memo = prob::MemoCache::Global().Stats();
  metrics_.memo_hits->Set(static_cast<std::int64_t>(memo.hits));
  metrics_.memo_misses->Set(static_cast<std::int64_t>(memo.misses));
  metrics_.memo_entries->Set(static_cast<std::int64_t>(memo.entries));
  metrics_.memo_bytes->Set(static_cast<std::int64_t>(memo.bytes));
  metrics_.memo_evictions->Set(static_cast<std::int64_t>(memo.evictions));
  if (slo_ != nullptr) slo_->Publish(obs::NowNanos());
  return registry_.Snapshot();
}

JsonValue BatchEngine::OptionsJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("threads", static_cast<std::int64_t>(pool_.thread_count()))
      .Set("solver_threads",
           static_cast<std::int64_t>(options_.solver_threads))
      .Set("cache_capacity",
           static_cast<std::int64_t>(options_.cache_capacity))
      .Set("memo_cache_entries",
           static_cast<std::int64_t>(options_.memo_cache_entries))
      .Set("unordered", options_.unordered)
      .Set("trace", options_.trace)
      .Set("max_queue", static_cast<std::int64_t>(options_.max_queue))
      .Set("max_line_bytes",
           static_cast<std::int64_t>(options_.max_line_bytes))
      .Set("watchdog_stuck_ms", options_.watchdog_stuck_ms)
      .Set("retry_max", options_.retry.max_attempts);
  JsonValue slo = JsonValue::Object();
  slo.Set("enabled", options_.slo.enabled())
      .Set("availability", options_.slo.availability)
      .Set("p99_ms", options_.slo.p99_ms)
      .Set("window_s", options_.slo.window_s);
  json.Set("slo", std::move(slo));
  return json;
}

JsonValue BatchEngine::StatsSnapshotJson() const {
  JsonValue json;
  {
    // The result cache is coordinator-state; async requests completing on
    // pool workers may be publishing into it concurrently.
    std::lock_guard<std::mutex> lock(plan_mutex_);
    json = stats().ToJson(cache_);
  }
  // The memo block lives here (the {"cmd":"stats"} response) and NOT in
  // the batch stats line: its hit/miss split depends on which worker won
  // each compute race, and the stats line is pinned byte-identical across
  // thread counts.
  const prob::MemoCacheStats memo = prob::MemoCache::Global().Stats();
  JsonValue memo_json = JsonValue::Object();
  memo_json
      .Set("capacity", static_cast<std::int64_t>(memo.capacity_entries))
      .Set("entries", static_cast<std::int64_t>(memo.entries))
      .Set("bytes", static_cast<std::int64_t>(memo.bytes))
      .Set("hits", static_cast<std::int64_t>(memo.hits))
      .Set("misses", static_cast<std::int64_t>(memo.misses))
      .Set("inserts", static_cast<std::int64_t>(memo.inserts))
      .Set("evictions", static_cast<std::int64_t>(memo.evictions))
      .Set("skipped_inserts",
           static_cast<std::int64_t>(memo.skipped_inserts));
  json.Set("memo_cache", std::move(memo_json));
  json.Set("metrics", MetricsSnapshot().ToJson());
  return json;
}

std::unique_ptr<BatchEngine::PendingRequest> BatchEngine::PlanLine(
    InputLine line, std::shared_ptr<const resilience::CancelToken> parent) {
  auto pending = std::make_unique<PendingRequest>();
  pending->line = line.number;
  // Set before validation, so even a rejected request's error line is
  // attributable.
  pending->id = std::move(line.id);
  pending->planned_ns = obs::NowNanos();
  pending->span.trace_id = next_trace_id_.fetch_add(1);
  pending->span.line = line.number;
  metrics_.requests->Inc();
  if (line.kind == InputLine::Kind::kTooLong) {
    metrics_.rejected_lines->Inc();
    pending->parse_error = "input line exceeds max_line_bytes (" +
                           std::to_string(options_.max_line_bytes) + ")";
    pending->plan_error_code = pending->span.outcome = "line_too_long";
    return pending;
  }
  if (!line.error.empty()) {
    pending->parse_error = std::move(line.error);
    return pending;
  }
  std::vector<WorkUnit> expanded;
  try {
    pending->request = ParseRequest(line.json, line.number);
    pending->id = pending->request.id;
    pending->span.op = OpName(pending->request.op);
    pending->span.deadline_ms = pending->request.deadline_ms;
    if (pending->request.deadline_ms > 0) {
      pending->token = std::make_shared<resilience::CancelToken>(
          resilience::Deadline::AfterMillis(pending->request.deadline_ms),
          parent);
    } else if (parent != nullptr) {
      // No deadline, but the submitter wants a cancellation handle (e.g.
      // cancel-on-disconnect). The chained token inherits the parent's
      // memo-insert permission, so a connection token created with
      // allow_memo_inserts keeps warming the solver memo cache.
      pending->token = std::make_shared<resilience::CancelToken>(
          resilience::Deadline(), parent);
    }
    expanded = ExpandRequest(pending->request);
  } catch (const Error& e) {
    pending->parse_error = e.what();
    return pending;
  }

  // Backpressure: checked before any unit is admitted, so a rejected
  // request contributes nothing to the unit/cache counters.
  if (options_.max_queue > 0 &&
      pool_.QueueDepth() + expanded.size() > options_.max_queue) {
    metrics_.overloaded->Inc();
    pending->parse_error =
        "engine overloaded: " + std::to_string(expanded.size()) +
        " unit(s) would exceed max queue depth " +
        std::to_string(options_.max_queue);
    pending->plan_error_code = "overloaded";
    pending->span.outcome = "overloaded";
    return pending;
  }

  std::vector<std::string> keys;
  keys.reserve(expanded.size());
  for (const WorkUnit& unit : expanded) keys.push_back(CanonicalKey(unit));

  // A request under a deadline keeps to itself: its units still consult
  // the cache, but they neither join in-flight units nor register as
  // coalescing targets — cancelling a shared unit would fail an innocent
  // request that coalesced onto it.
  const bool isolated = pending->token != nullptr;
  // Fresh (non-cached, non-coalesced) units are collected here and handed
  // to the pool together once the whole request has planned, so small
  // units can share pool tasks (FlushSubmits).
  std::vector<std::pair<std::shared_ptr<PendingUnit>, WorkUnit>> fresh;
  {
    // Everything above reads only the line. The in-flight slots, the
    // cache and its counters are shared with concurrent submitters and
    // with async requests completing on pool workers.
    std::lock_guard<std::mutex> lock(plan_mutex_);
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      metrics_.units->Inc();
      PendingRequest::UnitRef ref;
      obs::RequestSpan::Unit unit_span;
      const std::string& key = keys[i];

      const std::int64_t lookup_start = obs::NowNanos();
      const auto it = isolated ? in_flight_.end() : in_flight_.find(key);
      const bool coalesced = it != in_flight_.end();
      LruResultCache::Hit cached;
      if (!coalesced) cached = cache_.Lookup(key);
      const std::int64_t lookup_ns = obs::NowNanos() - lookup_start;
      metrics_.cache_lookup->Record(lookup_ns);
      pending->span.cache_lookup_ns += lookup_ns;

      if (coalesced) {
        ref.pending = it->second;
        metrics_.coalesced->Inc();
        unit_span.source = "coalesced";
      } else if (cached.value != nullptr) {
        ref.cached = std::move(cached.value);
        ref.cached_bytes = std::move(cached.bytes);
        unit_span.source = "cache_hit";
      } else {
        auto slot = std::make_shared<PendingUnit>();
        slot->key = key;
        slot->request_token = pending->token;
        if (!isolated) in_flight_.emplace(key, slot);
        ref.pending = slot;
        unit_span.source = "computed";
        fresh.emplace_back(slot, std::move(expanded[i]));
      }
      pending->units.push_back(std::move(ref));
      pending->span.units.push_back(std::move(unit_span));
    }
  }
  FlushSubmits(&fresh);
  return pending;
}

void BatchEngine::FlushSubmits(
    std::vector<std::pair<std::shared_ptr<PendingUnit>, WorkUnit>>* fresh) {
  if (fresh->empty()) return;
  // The watchdog cancels whole pool tasks, and one stuck unit must not
  // take its group-mates down with it: no grouping while it is armed.
  const bool groupable = options_.watchdog_stuck_ms == 0;
  std::vector<std::pair<std::shared_ptr<PendingUnit>, WorkUnit>> small;
  for (auto& entry : *fresh) {
    if (groupable && UnitCostProxy(entry.second) < kGroupCostThreshold) {
      small.push_back(std::move(entry));
    } else {
      SubmitUnit(entry.first, std::move(entry.second), /*attempt=*/1);
    }
  }
  fresh->clear();
  if (small.empty()) return;
  if (small.size() == 1) {
    SubmitUnit(small[0].first, std::move(small[0].second), /*attempt=*/1);
    return;
  }
  // Contiguous chunks preserve the units' in-request order inside each
  // task; chunk count caps at the pool width (more chunks than workers
  // only adds dispatch overhead back).
  const std::size_t pool_width = std::max<std::size_t>(1, pool_.thread_count());
  const std::size_t chunk_count = std::min(
      pool_width,
      std::max<std::size_t>(1, small.size() / kGroupMinUnitsPerChunk));
  const std::size_t per_chunk = (small.size() + chunk_count - 1) / chunk_count;
  const std::int64_t submitted_ns = obs::NowNanos();
  for (std::size_t begin = 0; begin < small.size(); begin += per_chunk) {
    const std::size_t end = std::min(small.size(), begin + per_chunk);
    auto chunk = std::make_shared<
        std::vector<std::pair<std::shared_ptr<PendingUnit>, WorkUnit>>>(
        std::make_move_iterator(small.begin() + begin),
        std::make_move_iterator(small.begin() + end));
    pool_.Submit([this, chunk, submitted_ns]() {
      for (std::size_t i = 0; i < chunk->size(); ++i) {
        auto& [slot, unit] = (*chunk)[i];
        // The same per-attempt token chain SubmitUnit builds, so deadline
        // and disconnect cancellation behave identically under grouping.
        // (No watchdog token: grouping is bypassed when it is armed.)
        std::shared_ptr<resilience::CancelToken> token;
        if (slot->request_token != nullptr) {
          token = std::make_shared<resilience::CancelToken>(
              resilience::Deadline(), slot->request_token);
        }
        try {
          RunUnit(slot, token, std::move(unit), /*attempt=*/1, submitted_ns);
        } catch (const resilience::WorkerAbort&) {
          // This worker thread is dying. Peel the not-yet-run group mates
          // off onto their own tasks so their requests still complete,
          // then let the abort propagate for the pool to respawn us.
          for (std::size_t j = i + 1; j < chunk->size(); ++j) {
            SubmitUnit((*chunk)[j].first, std::move((*chunk)[j].second),
                       /*attempt=*/1);
          }
          throw;
        }
      }
    });
  }
}

void BatchEngine::SubmitUnit(const std::shared_ptr<PendingUnit>& slot,
                             WorkUnit unit, int attempt) {
  const std::int64_t submitted_ns = obs::NowNanos();
  // A per-attempt token chains off the request token (deadline) and gives
  // the watchdog a per-task cancellation target. No token at all when both
  // features are off — the default path allocates nothing.
  std::shared_ptr<resilience::CancelToken> token;
  if (slot->request_token != nullptr || options_.watchdog_stuck_ms > 0) {
    token = std::make_shared<resilience::CancelToken>(resilience::Deadline(),
                                                      slot->request_token);
  }
  pool_.Submit(
      [this, slot, token, attempt, submitted_ns,
       unit = std::move(unit)]() mutable {
        RunUnit(slot, token, std::move(unit), attempt, submitted_ns);
      },
      token);
}

void BatchEngine::RunUnit(const std::shared_ptr<PendingUnit>& slot,
                          const std::shared_ptr<resilience::CancelToken>& token,
                          WorkUnit unit, int attempt,
                          std::int64_t submitted_ns) {
  if (attempt > 1) {
    std::this_thread::sleep_for(options_.retry.Delay(
        attempt - 1, std::hash<std::string>{}(slot->key)));
  }
  const std::int64_t started_ns = obs::NowNanos();
  slot->queue_wait_ns = started_ns - submitted_ns;
  metrics_.queue_wait->Record(slot->queue_wait_ns);
  slot->attempts = attempt;

  bool publish = true;
  bool propagate_abort = false;
  try {
    resilience::ScopedCancelScope scope(token.get());
    if (injector_ != nullptr) injector_->OnEvaluate();
    resilience::CancellationPoint();  // the deadline may already be past
    slot->result = std::make_shared<JsonValue>(EvaluateUnit(unit));
  } catch (const resilience::Cancelled& e) {
    metrics_.cancelled_units->Inc();
    if (e.reason() == resilience::CancelReason::kWatchdog &&
        options_.retry.ShouldRetry(attempt)) {
      // Stuck (not deadline-expired): worth another try on a fresh token.
      metrics_.retries->Inc();
      publish = false;
      SubmitUnit(slot, std::move(unit), attempt + 1);
    } else {
      slot->error = e.what();
      slot->error_code = resilience::CancelErrorCode(e.reason());
    }
  } catch (const resilience::WorkerAbort& e) {
    metrics_.worker_aborts->Inc();
    if (options_.retry.ShouldRetry(attempt)) {
      metrics_.retries->Inc();
      publish = false;
      SubmitUnit(slot, std::move(unit), attempt + 1);
    } else {
      slot->error = std::string(e.what()) + " (retries exhausted)";
      slot->error_code = "worker_aborted";
    }
    // Either way this worker thread dies; the retry (if any) runs on a
    // surviving or respawned worker.
    propagate_abort = true;
  } catch (const resilience::Transient& e) {
    if (options_.retry.ShouldRetry(attempt)) {
      metrics_.retries->Inc();
      publish = false;
      SubmitUnit(slot, std::move(unit), attempt + 1);
    } else {
      slot->error = std::string(e.what()) + " (retries exhausted)";
      slot->error_code = "retries_exhausted";
    }
  } catch (const Error& e) {
    slot->error = e.what();
  } catch (const std::exception& e) {
    slot->error = std::string("internal error: ") + e.what();
  }
  const std::int64_t solve_ns = obs::NowNanos() - started_ns;
  metrics_.solve->Record(solve_ns);
  if (publish) {
    // Only the publishing attempt writes the slot here: after a resubmit
    // the retry owns it and may already be running on another worker.
    slot->solve_ns = solve_ns;
    std::vector<std::shared_ptr<PendingRequest>> completed;
    {
      // Notify while holding the mutex: the coordinator may destroy this
      // engine (and the condvar) as soon as it observes done, so the
      // broadcast must complete before the waiter can re-acquire.
      std::lock_guard<std::mutex> lock(done_mutex_);
      slot->done = true;
      done_cv_.notify_all();
      for (std::shared_ptr<PendingRequest>& waiter : slot->waiters) {
        if (--waiter->remaining == 0) completed.push_back(std::move(waiter));
      }
      slot->waiters.clear();
    }
    // Every path above — result, error, cancellation, exhausted retries, a
    // dying worker — publishes exactly once, so each async request waiting
    // on this unit is counted down exactly once, and answered here when
    // this was its last unit.
    for (const std::shared_ptr<PendingRequest>& request : completed) {
      CompleteAsync(*request);
    }
  }
  if (propagate_abort) {
    throw resilience::WorkerAbort("worker crashed evaluating " + slot->key);
  }
}

bool BatchEngine::WaitForUnits(const PendingRequest& request) {
  if (!request.parse_error.empty()) return false;
  std::unique_lock<std::mutex> lock(done_mutex_);
  // A token without a deadline (cancel-on-disconnect) gets the plain
  // wait: cancellation makes its workers publish done with an error, so
  // the wait still terminates.
  const resilience::Deadline deadline =
      request.token != nullptr ? request.token->EffectiveDeadline()
                               : resilience::Deadline();
  if (!deadline.set()) {
    for (const PendingRequest::UnitRef& ref : request.units) {
      if (ref.pending) {
        done_cv_.wait(lock, [&ref] { return ref.pending->done; });
      }
    }
    return false;
  }
  const auto expires = deadline.time_point();
  for (const PendingRequest::UnitRef& ref : request.units) {
    if (!ref.pending) continue;
    if (!done_cv_.wait_until(lock, expires,
                             [&ref] { return ref.pending->done; })) {
      return true;
    }
  }
  return false;
}

std::string BatchEngine::RenderRequest(PendingRequest& request,
                                       bool deadline_hit) {
  obs::RequestSpan& span = request.span;
  span.request_id = request.id;
  JsonValue response = JsonValue::Object();
  // Set when the line is built around the result's rendered bytes (a
  // successful non-sweep response without a trace); `response` then
  // stays empty.
  std::shared_ptr<const std::string> result_bytes;
  std::int64_t render_ns = 0;  // time spent rendering result_bytes

  // On deadline expiry: try the cheap closed-form fallback if asked for it,
  // otherwise report a structured deadline error. Returns true once a
  // response has been built.
  const auto try_degrade = [&]() -> bool {
    if (!request.request.degrade ||
        request.request.op != RequestOp::kAnalyze) {
      return false;
    }
    try {
      JsonValue result = DegradedAnalyzeResult(request.request.params);
      metrics_.degraded->Inc();
      metrics_.ok->Inc();
      span.outcome = "degraded";
      response.Set("id", request.id)
          .Set("op", OpName(request.request.op))
          .Set("degraded", true)
          .Set("result", std::move(result));
      return true;
    } catch (const Error&) {
      return false;  // even the fallback rejected the scenario
    }
  };

  if (!request.parse_error.empty()) {
    metrics_.errors->Inc();
    if (!request.id.is_null()) response.Set("id", request.id);
    response.Set("line", request.line).Set("error", request.parse_error);
    if (!request.plan_error_code.empty()) {
      response.Set("error_code", request.plan_error_code);
    }
  } else {
    if (deadline_hit) {
      // Tell the workers to stop burning CPU on this request; the
      // cancellation points inside the solvers pick it up.
      request.token->Cancel(resilience::CancelReason::kDeadline);
      metrics_.deadline_exceeded->Inc();
      span.outcome = "deadline_exceeded";
      // In the sync paths the slots may still be written by workers that
      // have not yet hit a cancellation point — read none of them. That
      // also guarantees nothing from a timed-out request ever reaches the
      // result cache.
      if (!try_degrade()) {
        metrics_.errors->Inc();
        response.Set("id", request.id)
            .Set("line", request.line)
            .Set("error",
                 "deadline exceeded after " +
                     std::to_string(request.request.deadline_ms) + " ms")
            .Set("error_code", "deadline_exceeded");
      }
    } else {
      // Copy the worker-side timings into the span (race-free: every done
      // flag was observed under done_mutex_, by WaitForUnits or by the
      // thread completing an async request).
      for (std::size_t i = 0; i < request.units.size(); ++i) {
        if (const auto& pending = request.units[i].pending) {
          span.units[i].queue_wait_ns = pending->queue_wait_ns;
          span.units[i].solve_ns = pending->solve_ns;
          span.units[i].attempts = pending->attempts;
          span.queue_wait_ns += pending->queue_wait_ns;
          span.solve_ns += pending->solve_ns;
        }
      }

      // A non-sweep request has one unit. Without a trace its line is
      // built around the result's rendered bytes: a hit's come from the
      // cache entry, a computed result's are rendered here (no lock held)
      // and stored with it. Only sweep points (whose keys no other op
      // shares) and traced engines store entries without bytes.
      const bool reuse_bytes =
          !options_.trace && request.request.op != RequestOp::kSweep;
      if (reuse_bytes) {
        const PendingRequest::UnitRef& ref = request.units.front();
        if (ref.cached) {
          result_bytes = ref.cached_bytes;
        } else if (ref.pending->error.empty()) {
          const std::int64_t render_start = obs::NowNanos();
          result_bytes = std::make_shared<const std::string>(
              ref.pending->result->ToString());
          render_ns = obs::NowNanos() - render_start;
        }
      }

      std::string unit_error;
      std::string unit_error_code;
      std::vector<const JsonValue*> results;
      results.reserve(request.units.size());
      {
        std::lock_guard<std::mutex> plan_lock(plan_mutex_);
        for (const PendingRequest::UnitRef& ref : request.units) {
          if (ref.cached) {
            results.push_back(ref.cached.get());
            continue;
          }
          PendingUnit& slot = *ref.pending;
          if (!slot.error.empty()) {
            // Failed or cancelled units are never published to the cache.
            unit_error = slot.error;
            unit_error_code = slot.error_code;
            break;
          }
          // The first request rendered of those sharing a unit publishes
          // it to the cache. The sync paths render on the coordinator in
          // input order, keeping eviction deterministic; async requests
          // publish in completion order.
          if (!slot.inserted) {
            cache_.Put(slot.key, slot.result, result_bytes);
            slot.inserted = true;
          }
          results.push_back(slot.result.get());
        }
        // Release this request's in-flight registrations: async mode plans
        // concurrently with rendering, so they are not cleared wholesale the
        // way the sync paths do (there the map is already empty here).
        for (const PendingRequest::UnitRef& ref : request.units) {
          if (!ref.pending) continue;
          auto it = in_flight_.find(ref.pending->key);
          if (it != in_flight_.end() && it->second == ref.pending) {
            in_flight_.erase(it);
          }
        }
      }

      if (!unit_error.empty()) {
        if (!unit_error_code.empty()) span.outcome = unit_error_code;
        if (unit_error_code == "deadline_exceeded") {
          metrics_.deadline_exceeded->Inc();
        }
        if (unit_error_code == "deadline_exceeded" && try_degrade()) {
          // A worker observed the deadline before the coordinator did
          // (unordered mode); same fallback applies.
        } else {
          metrics_.errors->Inc();
          response.Set("id", request.id)
              .Set("line", request.line)
              .Set("error", unit_error);
          if (!unit_error_code.empty()) {
            response.Set("error_code", unit_error_code);
          }
        }
      } else {
        metrics_.ok->Inc();
        if (result_bytes == nullptr) {
          response.Set("id", request.id)
              .Set("op", OpName(request.request.op))
              .Set("result", ComposeResponse(request.request, results));
        }
      }
    }
  }

  const std::int64_t serialize_start = obs::NowNanos();
  std::string text =
      result_bytes != nullptr
          ? ResultLine(request.id, request.request.op, *result_bytes)
          : response.ToString();
  span.serialize_ns = render_ns + (obs::NowNanos() - serialize_start);
  metrics_.serialize->Record(span.serialize_ns);

  if (options_.trace) {
    response.Set("trace", span.ToJson());
    text = response.ToString();
  }
  if (trace_out_.is_open()) {
    const std::string line = span.ToFileJson().ToString();
    std::lock_guard<std::mutex> lock(trace_out_mutex_);
    trace_out_ << line << "\n";
    trace_out_.flush();
  }

  // Observability fan-out: every rendered request lands in the /tracez
  // ring, the SLO window (when configured), and the front-end's hook.
  // None of these touch `text`, so the output stream stays byte-identical.
  {
    const std::int64_t done_ns = obs::NowNanos();
    obs::CompletedSpan completed;
    completed.trace_id = span.trace_id;
    completed.id = request.id.is_string() ? request.id.AsString()
                                          : request.id.ToString();
    completed.op = span.op;
    completed.ok = response.Find("error") == nullptr;
    if (!completed.ok) {
      if (const JsonValue* code = response.Find("error_code")) {
        completed.error_code = code->AsString();
      }
    }
    completed.queue_wait_ns = span.queue_wait_ns;
    completed.solve_ns = span.solve_ns;
    completed.total_ns = done_ns - request.planned_ns;
    trace_ring_.Record(completed);
    if (slo_ != nullptr) {
      slo_->Record(completed.ok, completed.total_ns, done_ns);
    }
    if (completion_hook_) completion_hook_(completed);
  }
  return text;
}

JsonValue BatchEngine::AnswerCommand(const InputLine& line) {
  if (line.cmd == "stats") return StatsSnapshotJson();
  if (command_hook_) return command_hook_(line);
  JsonValue error = JsonValue::Object();
  error.Set("error", "unknown cmd; expected \"stats\"");
  return error;
}

void BatchEngine::ProcessStream(std::istream& in, std::ostream& out,
                                bool streaming) {
  std::string text;
  int line_number = 0;
  bool truncated = false;
  std::vector<std::unique_ptr<PendingRequest>> planned;
  while (framing::ReadBoundedLine(in, text, options_.max_line_bytes,
                                  &truncated)) {
    InputLine line = ReadInputLine(text, ++line_number, truncated);
    if (line.kind == InputLine::Kind::kBlank) continue;
    // Batch mode has no command channel: its "cmd" lines are requests, and
    // the strict request parser rejects the unknown key.
    if (!streaming) {
      planned.push_back(PlanLine(std::move(line)));
      continue;
    }
    if (line.kind == InputLine::Kind::kCommand) {
      out << AnswerCommand(line).ToString() << "\n";
    } else {
      const std::unique_ptr<PendingRequest> request = PlanLine(std::move(line));
      out << RenderRequest(*request, WaitForUnits(*request)) << "\n";
      in_flight_.clear();
    }
    out.flush();
  }
  if (streaming) return;
  in_flight_.clear();  // emission takes over; new batches plan afresh

  if (!options_.unordered) {
    for (const std::unique_ptr<PendingRequest>& request : planned) {
      out << RenderRequest(*request, WaitForUnits(*request)) << "\n";
    }
    return;
  }

  // Unordered: emit each request as soon as its last unit completes.
  auto ready = [](const PendingRequest& request) {
    if (!request.parse_error.empty()) return true;
    for (const PendingRequest::UnitRef& ref : request.units) {
      if (ref.pending && !ref.pending->done) return false;
    }
    return true;
  };
  std::vector<bool> emitted(planned.size(), false);
  std::size_t remaining = planned.size();
  while (remaining > 0) {
    std::size_t next = planned.size();
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [&] {
        for (std::size_t i = 0; i < planned.size(); ++i) {
          if (!emitted[i] && ready(*planned[i])) {
            next = i;
            return true;
          }
        }
        return false;
      });
    }
    out << RenderRequest(*planned[next], WaitForUnits(*planned[next])) << "\n";
    emitted[next] = true;
    --remaining;
  }
}

void BatchEngine::RunBatch(std::istream& in, std::ostream& out) {
  ProcessStream(in, out, /*streaming=*/false);
}

void BatchEngine::Serve(std::istream& in, std::ostream& out) {
  ProcessStream(in, out, /*streaming=*/true);
}

void BatchEngine::StartAsync() { async_started_.store(true); }

void BatchEngine::SubmitLineAsync(
    const std::string& line, int line_number,
    std::shared_ptr<const resilience::CancelToken> parent, bool oversized,
    ResponseCallback done) {
  SubmitAsync(ReadInputLine(line, line_number, oversized), std::move(parent),
              std::move(done));
}

void BatchEngine::SubmitAsync(
    InputLine line, std::shared_ptr<const resilience::CancelToken> parent,
    ResponseCallback done) {
  SPARSEDET_CHECK(async_started_.load(), "SubmitAsync before StartAsync");
  {
    std::lock_guard<std::mutex> lock(async_mutex_);
    ++async_pending_;
  }
  if (line.kind == InputLine::Kind::kCommand) {
    // Answered here, so a pipelined {"cmd":"stats"} counts every request
    // planned before it.
    std::string text = AnswerCommand(line).ToString();
    if (done) done(std::move(text));
    FinishAsync();
    return;
  }
  const std::shared_ptr<PendingRequest> request =
      PlanLine(std::move(line), std::move(parent));
  request->done = std::move(done);
  // Nothing left to compute (cache hits, a plan-time error): answer on
  // this thread. Otherwise the worker publishing the last unit does.
  if (AwaitUnits(request) == 0) CompleteAsync(*request);
}

int BatchEngine::AwaitUnits(const std::shared_ptr<PendingRequest>& request) {
  std::lock_guard<std::mutex> lock(done_mutex_);
  for (const PendingRequest::UnitRef& ref : request->units) {
    // A unit already published counts at once.
    if (ref.pending && !ref.pending->done) {
      ref.pending->waiters.push_back(request);
      ++request->remaining;
    }
  }
  return request->remaining;
}

void BatchEngine::CompleteAsync(PendingRequest& request) {
  // Every unit is done, so nobody waited on the deadline: it counts as hit
  // when it has passed, or when it cancelled a unit.
  bool deadline_hit = false;
  if (request.parse_error.empty() && request.token != nullptr) {
    const resilience::Deadline deadline = request.token->EffectiveDeadline();
    deadline_hit = deadline.set() && deadline.Expired();
    for (const PendingRequest::UnitRef& ref : request.units) {
      if (ref.pending && ref.pending->error_code == "deadline_exceeded") {
        deadline_hit = true;
      }
    }
  }
  std::string text = RenderRequest(request, deadline_hit);
  if (request.done) request.done(std::move(text));
  FinishAsync();
}

void BatchEngine::FinishAsync() {
  // Notify while holding the mutex, as RunUnit does: DrainAsync in
  // ~BatchEngine may return, and the condvar die, once it sees zero.
  std::lock_guard<std::mutex> lock(async_mutex_);
  if (--async_pending_ == 0) async_idle_.notify_all();
}

void BatchEngine::DrainAsync() {
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_idle_.wait(lock, [this] { return async_pending_ == 0; });
}

void BatchEngine::StopAsync() {
  DrainAsync();
  async_started_.store(false);
}

void BatchEngine::WriteStatsLine(std::ostream& out) const {
  out << stats().ToJson(cache_).ToString() << "\n";
}

}  // namespace sparsedet::engine
