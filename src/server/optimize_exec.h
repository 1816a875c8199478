// Off-loop execution of the long commands — {"cmd": "optimize"} and
// {"cmd": "adapt"} — for the TCP server.
//
// A long command runs hundreds-to-thousands of inner solves and takes
// seconds to minutes — orders of magnitude past anything else on the
// command path. The stdio serve loop can afford to run it inline (the
// engine is idle between its lines); the TCP server cannot run it on
// the event loop, which would freeze every connection for the whole run,
// nor on an engine pool worker, which the run would hold while it blocks
// waiting for inner-solve callbacks that other workers fire.
//
// So long commands get a dedicated executor: a one-worker WorkerPool, which
// runs jobs one at a time in submission order. Jobs run through
// AsyncEngineBackend (inner solves interleave with regular connection
// traffic on the shared engine, all against the shared memo cache) under
// the submitting connection's cancel token, so a disconnect aborts the run
// between batches. Per-tenant admission is applied per inner-solve *batch*
// via the shared admit hook — one governor token per batch, the same
// bucket that gates the tenant's regular requests — so a tenant's long
// command and its plain traffic share one quota.
//
// Drain: when the server starts a SIGTERM drain it calls BeginDrain().
// From that point the admit hook refuses every further batch, so running
// and queued jobs wind down to valid *partial* results within one batch,
// and every response rendered during the drain is tagged
// "degraded": true — a drained answer must never be mistaken for a
// complete one.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "adapt/adapt.h"
#include "common/json.h"
#include "engine/engine.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "resilience/cancel.h"
#include "server/token_bucket.h"

namespace sparsedet::server {

// The long commands, in name order: the one list of them. The stdio serve
// loop answers them inline, the TCP router hands them to OptimizeExecutor,
// and both quote the list in the unknown-cmd error.
struct LongCommand {
  const char* name;
  JsonValue (*handle)(const JsonValue& command, opt::SolveBackend& backend,
                      obs::MetricsRegistry* registry,
                      const opt::OptimizerHooks& hooks);
};
inline constexpr LongCommand kLongCommands[] = {
    {"adapt", adapt::HandleAdaptCommand},
    {"optimize", opt::HandleOptimizeCommand},
};

// The long command called `name`, or null.
const LongCommand* FindLongCommand(const std::string& name);

// The answer to a command line naming neither "stats" nor a long command.
JsonValue UnknownCommandError();

class OptimizeExecutor {
 public:
  // Both references must outlive the executor. Registers opt_server_*
  // metrics in the engine's registry.
  OptimizeExecutor(engine::BatchEngine& engine, TenantGovernor& governor);
  ~OptimizeExecutor();

  OptimizeExecutor(const OptimizeExecutor&) = delete;
  OptimizeExecutor& operator=(const OptimizeExecutor&) = delete;

  // Creates the worker; a no-op while one is running.
  void Start();
  // Runs every queued job (each still gets its callback), then joins the
  // worker. Idempotent; Start may be called again.
  void Stop();

  // Flags a server drain in progress: every subsequent inner-solve batch
  // is refused (jobs finish as degraded partials within one batch) and
  // every response rendered from now on carries "degraded": true. One-way;
  // safe to call from any thread.
  void BeginDrain();

  using Done = std::function<void(std::string response)>;
  // Enqueues one command line naming `command`; the line's tenant pays
  // for its inner-solve batches. `cancel` (optional) aborts the run
  // between inner-solve batches — pass the connection token so a
  // disconnect stops paying for an answer nobody will read. `done` runs on
  // the executor thread with the rendered response line (no trailing
  // newline) and must not block. Calling it outside Start/Stop is an
  // internal error.
  void Submit(const LongCommand& command, engine::InputLine line,
              std::shared_ptr<const resilience::CancelToken> cancel,
              Done done);

  // {"jobs_total", "queue_depth", "running"} for /statusz.
  JsonValue StatuszJson() const;

 private:
  struct Job {
    const LongCommand* command = nullptr;
    engine::InputLine line;
    std::shared_ptr<const resilience::CancelToken> cancel;
    Done done;
  };

  std::string RunJob(const Job& job);

  engine::BatchEngine& engine_;
  TenantGovernor& governor_;

  obs::Counter* jobs_total_;
  obs::Gauge* queue_depth_;
  obs::Gauge* running_;

  std::atomic<bool> draining_{false};

  // One worker: jobs run one at a time, in submission order. Null outside
  // Start/Stop. Declared last: its destructor runs queued jobs, which use
  // every member above.
  std::unique_ptr<engine::WorkerPool> pool_;
};

}  // namespace sparsedet::server
