// Batch evaluation engine: JSONL requests in, JSONL results out.
//
// The engine reads one JSON request per line (see request.h for the
// schema), expands each into cacheable work units, deduplicates units
// against a bounded LRU result cache *and* against identical units already
// in flight, evaluates the remainder on a persistent worker pool, and
// emits exactly one JSON response line per input line.
//
// Determinism contract (ordered mode, the default):
//   * responses appear in input order;
//   * every cache lookup and insertion happens on the coordinator thread
//     in input order, so the hit/miss/eviction counters — and the entire
//     output stream including the final stats line — are byte-identical
//     across worker-thread counts.
// Unordered mode trades that for latency: responses are emitted as soon as
// they complete (each tagged with its request id), and the stats counters
// remain deterministic but line order does not. The async API (the TCP
// front-end's) keeps neither: it answers each request where its work
// finishes, so callbacks and cache insertions follow completion order —
// each response is still byte-identical to the sync paths' for its line.
//
// Per-request error isolation: a malformed line or an invalid scenario
// yields one {"id": ..., "error": ...} line; the engine itself never
// throws for bad input and keeps processing the stream. Every line is read
// once, by ReadInputLine (input_line.h), whichever entry point it takes.
//
// Observability: every engine owns an obs::MetricsRegistry. All stats
// counters live in it (incremented on the coordinator, so they stay
// deterministic), the four engine phases (queue-wait / cache-lookup /
// solve / serialize) and the solver stages record latency histograms into
// it, and each request carries an obs::RequestSpan. Spans are emitted only
// under options.trace / options.trace_file; serve mode answers a
// {"cmd":"stats"} line in-stream with the full registry snapshot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "engine/cache.h"
#include "engine/input_line.h"
#include "engine/request.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/tracez.h"
#include "resilience/cancel.h"
#include "resilience/fault_injection.h"
#include "resilience/retry.h"

namespace sparsedet::engine {

struct EngineOptions {
  std::size_t threads = 0;  // worker threads; 0 = hardware concurrency
  std::size_t cache_capacity = 4096;  // LRU entries; 0 disables the cache
  // ParallelFor width inside one work unit ("--solver-threads"): it sizes
  // Monte-Carlo trial batches. Defaults to 1: the pool already saturates
  // the machine with one unit per worker, so nested parallelism only helps
  // when requests are scarce. 0 = hardware concurrency. Installed
  // process-wide for the engine's lifetime and restored on destruction.
  std::size_t solver_threads = 1;
  // Capacity of the process-wide solver memo cache in entries
  // ("--memo-cache-entries"); 0 disables memoization. Installed at
  // construction, restored on destruction; the cached values themselves
  // persist across engines (they are keyed, immutable, and request-free).
  std::size_t memo_cache_entries = 4096;
  bool unordered = false;  // emit completions immediately, tagged by id
  bool trace = false;      // attach a "trace" span object to response lines
  std::string trace_file;  // JSONL span log path; empty = no span file

  // Resilience. The defaults either disable a feature or bound only
  // pathological inputs, so output for well-formed streams is unchanged.
  std::size_t max_queue = 0;  // reject requests whose units would push the
                              // pool backlog past this; 0 = unbounded
  std::size_t max_line_bytes = 1 << 20;  // reject longer input lines; 0 = off
  resilience::RetryPolicy retry;  // transient-fault retry schedule
  std::int64_t watchdog_stuck_ms = 0;  // cancel units stuck longer; 0 = off
  std::string fault_config;  // FaultInjector JSON (testing); "" = disabled

  // SLO objectives ("--slo-availability" / "--slo-p99-ms"). Disabled by
  // default; when enabled the tracker's gauges join the registry, so the
  // default-registry snapshot — and the determinism contract around it —
  // is untouched for existing invocations.
  obs::SloOptions slo;
};

// Deterministic counter snapshot; the shape of the final stats line.
struct EngineStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t units = 0;      // work units after sweep expansion
  std::uint64_t coalesced = 0;  // units joined to an identical in-flight unit

  // {"stats": {..., "cache": {...}}} — the final line batch mode emits.
  JsonValue ToJson(const LruResultCache& cache) const;
};

// Handles into the engine's registry; resolved once at construction so the
// hot path never takes the registry mutex.
struct EngineMetrics {
  explicit EngineMetrics(obs::MetricsRegistry& registry);

  obs::Counter* requests;
  obs::Counter* ok;
  obs::Counter* errors;
  obs::Counter* units;
  obs::Counter* coalesced;
  obs::Gauge* queue_depth;
  obs::Histogram* queue_wait;
  obs::Histogram* cache_lookup;
  obs::Histogram* solve;
  obs::Histogram* serialize;
  // Resilience events (all zero when the features are off).
  obs::Counter* deadline_exceeded;
  obs::Counter* degraded;
  obs::Counter* cancelled_units;
  obs::Counter* retries;
  obs::Counter* worker_aborts;
  obs::Counter* worker_respawns;
  obs::Counter* watchdog_cancels;
  obs::Counter* overloaded;
  obs::Counter* rejected_lines;
  obs::Counter* injected_faults;
  // Solver memo-cache mirrors, refreshed at snapshot time. Gauges (not
  // counters) because the underlying cache is process-global: workers from
  // any engine, or none, may have moved it since the last snapshot. They
  // are deliberately absent from the batch stats line — hit/miss totals
  // depend on worker interleaving, and that line must stay byte-identical
  // across thread counts.
  obs::Gauge* memo_hits;
  obs::Gauge* memo_misses;
  obs::Gauge* memo_entries;
  obs::Gauge* memo_bytes;
  obs::Gauge* memo_evictions;
};

class BatchEngine {
 public:
  explicit BatchEngine(const EngineOptions& options);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Drains `in`: plans every line, then emits every response. The cache
  // and cumulative stats persist across calls, so a second pass over the
  // same input reports hits instead of recomputing.
  void RunBatch(std::istream& in, std::ostream& out);

  // Long-running loop: one request line in, one response line out
  // (flushed), until EOF. Sweeps still fan out across the pool. Command
  // lines ({"cmd": ...}) are answered by AnswerCommand instead of being
  // treated as requests.
  void Serve(std::istream& in, std::ostream& out);

  // Appends the {"stats": ...} line to `out`.
  void WriteStatsLine(std::ostream& out) const;

  EngineStats stats() const;
  const LruResultCache& cache() const { return cache_; }

  // Full registry snapshot (counters, gauges, phase histograms).
  obs::RegistrySnapshot MetricsSnapshot() const;
  // {"stats": {...}, "metrics": {...}} — the {"cmd":"stats"} response.
  JsonValue StatsSnapshotJson() const;

  // The engine's registry, for front-ends that register their own
  // counters (connections, tenants, drain) alongside the engine's.
  obs::MetricsRegistry& registry() { return registry_; }

  // The completed-span ring behind the admin plane's /tracez. Always
  // recording (it never touches the output stream or the registry).
  const obs::TraceRing& trace_ring() const { return trace_ring_; }
  // The SLO tracker, or null unless options.slo enabled one.
  obs::SloTracker* slo() { return slo_.get(); }

  // Called at the end of every rendered request with the request's
  // flattened span: in async mode on the thread that answers it (the
  // submitting thread, or the pool worker that finished its last unit),
  // in the sync paths on the coordinator. Install before traffic starts;
  // the hook may run on several threads at once and must not block or
  // re-enter the engine. Front-ends use it to feed their own histograms
  // (server_queue_wait_us / server_solve_us).
  using CompletionHook = std::function<void(const obs::CompletedSpan&)>;
  void SetCompletionHook(CompletionHook hook) { completion_hook_ = std::move(hook); }

  const EngineOptions& options() const { return options_; }
  // Effective engine configuration as JSON, for /statusz.
  JsonValue OptionsJson() const;

  // ---- Out-of-band submission (the TCP front-end) ----
  //
  // The async API lets many connections feed one engine concurrently, and
  // answers each request where its work finishes. SubmitAsync plans the
  // line on the caller's thread (serialized by an internal mutex). A line
  // with nothing to compute — every unit a result-cache hit, or a plan-time
  // error — is rendered and called back on that thread before SubmitAsync
  // returns. Otherwise the pool worker that publishes the request's last
  // unit renders it and calls back. So callbacks run on the submitting
  // thread or on a pool worker, several at once, in completion order: there
  // is no global order, and a submitter that needs its own order (the TCP
  // server's per-connection reorder buffer) restores it. Each callback gets
  // the rendered line (no trailing newline), byte-identical to what Serve
  // prints for that line, and must not block or re-enter the engine.
  //
  // No thread waits on a request's deadline: a request is answered when its
  // last unit publishes, and one whose deadline has passed by then (or
  // whose unit the deadline cancelled) gets the same deadline_exceeded
  // error or degraded answer the sync paths give. A unit still queued when
  // its deadline passes is only answered once a worker dequeues it.
  //
  // `parent` (optional) chains under every token the request creates, so
  // cancelling it — e.g. on client disconnect — stops the request's units
  // at their next cancellation point. Command lines ({"cmd":...}) are
  // answered at submission, on the submitting thread: a "stats" line
  // counts every request planned before it.
  using ResponseCallback = std::function<void(std::string response)>;
  // Enables SubmitAsync; a no-op while enabled.
  void StartAsync();
  // Submits a line the caller has read with ReadInputLine. Blank lines are
  // answered like malformed ones; front ends skip them before submitting.
  // Calling it before StartAsync is an internal error.
  void SubmitAsync(InputLine line,
                   std::shared_ptr<const resilience::CancelToken> parent,
                   ResponseCallback done);
  // SubmitAsync(ReadInputLine(line, line_number, oversized), ...).
  void SubmitLineAsync(const std::string& line, int line_number,
                       std::shared_ptr<const resilience::CancelToken> parent,
                       bool oversized, ResponseCallback done);
  // Blocks until every submitted line has been called back.
  void DrainAsync();
  // Drains, then disables SubmitAsync. StartAsync may be called again.
  void StopAsync();

  // Front-end extension point: answers every command line other than
  // "stats" (the front end knows its own command table). Without a hook
  // those get {"error": "unknown cmd; expected \"stats\""}. The hook runs
  // synchronously on the thread answering the line — the serve loop, idle
  // between requests, or the submitting thread in async mode, where it
  // must not block. Install before traffic starts.
  using CommandHook = std::function<JsonValue(const InputLine& line)>;
  void SetCommandHook(CommandHook hook) { command_hook_ = std::move(hook); }

 private:
  struct PendingUnit;
  struct PendingRequest;
  // Freshly planned units (neither cached nor coalesced) awaiting a pool
  // task.
  using FreshUnits =
      std::vector<std::pair<std::shared_ptr<PendingUnit>, WorkUnit>>;

  // Plans one read line into a pending request, submitting any newly
  // needed evaluations to the pool. Too-long and malformed lines become
  // pending errors. Parsing, expansion and key building read only the
  // line; the lookups in the cache and in_flight_ take plan_mutex_, so
  // async submitters may call it concurrently. With `deferred` (the sync
  // batch path), the fresh units of a request without a token join that
  // batch-level list instead, which is flushed whenever it holds a chunk
  // for every worker; the caller flushes the rest once planning ends.
  std::shared_ptr<PendingRequest> PlanLine(
      InputLine line,
      std::shared_ptr<const resilience::CancelToken> parent = nullptr,
      FreshUnits* deferred = nullptr);
  // Sync paths: blocks until the request's units are done; returns true
  // when its deadline expired first. Flags each unit it blocks on, so
  // only that unit's publication wakes the coordinator.
  bool WaitForUnits(const PendingRequest& request);
  // Renders a request whose units are all done (or abandoned to an
  // expired deadline): inserts newly computed results into the cache and
  // returns the response line (no trailing newline). Runs on several
  // threads at once in async mode.
  std::string RenderRequest(PendingRequest& request, bool deadline_hit);
  // Registers `request` on each of its units still pending and returns how
  // many there are; the worker publishing the last one completes an async
  // request, or queues an unordered batch's request on ready_.
  int AwaitUnits(const std::shared_ptr<PendingRequest>& request);
  // Async: renders a request whose units are all done, calls it back and
  // counts it answered.
  void CompleteAsync(PendingRequest& request);
  // Async: counts one submitted line answered, waking DrainAsync at zero.
  void FinishAsync();
  void ProcessStream(std::istream& in, std::ostream& out, bool streaming);
  // The response object for a command line: "stats" is answered with
  // StatsSnapshotJson(), every other name by the command hook.
  JsonValue AnswerCommand(const InputLine& line);
  // Hands one evaluation attempt for `unit` to the pool. Attempt 1 comes
  // from the coordinator; retries resubmit from the failing worker.
  void SubmitUnit(const std::shared_ptr<PendingUnit>& slot, WorkUnit unit,
                  int attempt);
  // Dispatches freshly planned units — one request's, or a whole batch's
  // run of requests: heavy units one pool task each, small units grouped
  // into a few contiguous chunks, so per-task dispatch does not dominate a
  // ~10 us solve. Clears `*fresh`.
  void FlushSubmits(FreshUnits* fresh);
  // The worker-side body of one attempt: fault injection, cancellation
  // scope, evaluation, retry-or-publish.
  void RunUnit(const std::shared_ptr<PendingUnit>& slot,
               const std::shared_ptr<resilience::CancelToken>& token,
               WorkUnit unit, int attempt, std::int64_t submitted_ns);

  EngineOptions options_;
  // Process-wide settings displaced by this engine, restored in ~BatchEngine.
  std::size_t prev_solver_threads_ = 0;
  std::size_t prev_memo_capacity_ = 0;
  // The registry outlives the cache (counter handles) and the pool
  // (workers record into phase histograms until joined) — declaration
  // order is load-bearing here. The injector sits between cache and pool
  // for the same reason: workers call into it until the pool is joined.
  // Pool workers also render async requests with members declared after
  // pool_; ~BatchEngine drains the async requests before any member dies.
  obs::MetricsRegistry registry_;
  EngineMetrics metrics_;
  LruResultCache cache_;
  std::unique_ptr<resilience::FaultInjector> injector_;
  // Completion signalling shared by all units: done flags, the sync
  // paths' condvar and the async waiter lists. Declared before the pool:
  // a worker abandoned by a deadline may broadcast on done_cv_ right up
  // until the pool's destructor joins it, so the condvar must die later.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  // Unordered batch: requests whose last unit has published, in completion
  // order, for the coordinator to render. Guarded by done_mutex_.
  std::deque<std::shared_ptr<PendingRequest>> ready_;
  // Async requests submitted and not yet called back, for DrainAsync.
  // Declared before the pool for the same reason as done_cv_.
  std::mutex async_mutex_;
  std::condition_variable async_idle_;
  std::size_t async_pending_ = 0;  // guarded by async_mutex_
  std::atomic<bool> async_started_{false};
  WorkerPool pool_;
  std::mutex trace_out_mutex_;  // async requests render concurrently
  std::ofstream trace_out_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  obs::TraceRing trace_ring_;
  std::unique_ptr<obs::SloTracker> slo_;  // null unless options.slo enabled
  CompletionHook completion_hook_;        // set before traffic, or never
  CommandHook command_hook_;              // set before traffic, or never

  // Units planned but not yet rendered, keyed by canonical key; identical
  // units join the same slot instead of recomputing.
  std::unordered_map<std::string, std::shared_ptr<PendingUnit>> in_flight_;

  // Serializes the coordinator-side state (PlanLine's lookups, cache
  // publication at render time, in_flight_, stats rendering) when the
  // async API is in use. The sync paths run single-threaded and pay
  // uncontended locks.
  mutable std::mutex plan_mutex_;
};

}  // namespace sparsedet::engine
