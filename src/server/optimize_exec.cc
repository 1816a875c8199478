#include "server/optimize_exec.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/log.h"
#include "obs/timer.h"
#include "opt/backend.h"

namespace sparsedet::server {

const LongCommand* FindLongCommand(const std::string& name) {
  for (const LongCommand& command : kLongCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

JsonValue UnknownCommandError() {
  std::string expected = "\"stats\"";
  for (const LongCommand& command : kLongCommands) {
    expected += ", \"" + std::string(command.name) + "\"";
  }
  JsonValue error = JsonValue::Object();
  error.Set("error", "unknown cmd; expected " + expected);
  return error;
}

OptimizeExecutor::OptimizeExecutor(engine::BatchEngine& engine,
                                   TenantGovernor& governor)
    : engine_(engine),
      governor_(governor),
      jobs_total_(&engine.registry().counter("opt_server_jobs_total")),
      queue_depth_(&engine.registry().gauge("opt_server_queue_depth")),
      running_(&engine.registry().gauge("opt_server_running")) {}

OptimizeExecutor::~OptimizeExecutor() { Stop(); }

void OptimizeExecutor::Start() {
  if (pool_ != nullptr) return;
  engine::WorkerPoolOptions options;
  options.threads = 1;
  options.queue_depth_gauge = queue_depth_;
  pool_ = std::make_unique<engine::WorkerPool>(options);
}

// Stop drains: every submitted job still answers (the server's
// outstanding-response accounting depends on it).
void OptimizeExecutor::Stop() { pool_.reset(); }

void OptimizeExecutor::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

void OptimizeExecutor::Submit(
    const LongCommand& command, engine::InputLine line,
    std::shared_ptr<const resilience::CancelToken> cancel, Done done) {
  SPARSEDET_CHECK(pool_ != nullptr, "OptimizeExecutor::Submit outside Start");
  jobs_total_->Inc();
  pool_->Submit([this, job = Job{&command, std::move(line), std::move(cancel),
                                 std::move(done)}] {
    running_->Set(1);
    std::string response = RunJob(job);
    running_->Set(0);
    if (job.done) job.done(std::move(response));
  });
}

std::string OptimizeExecutor::RunJob(const Job& job) {
  opt::AsyncEngineBackend backend(engine_, job.cancel);
  opt::OptimizerHooks hooks;
  hooks.cancel = job.cancel;
  // One governor token per inner-solve batch, from the same bucket that
  // admits the tenant's regular requests. The wait loop polls so a
  // disconnect or deadline mid-wait still resolves: cancellation throws
  // (caught by the command handler into an error response), deadline
  // expiry returns false (a degraded partial result). A server drain
  // refuses outright: the job winds down to a partial within one batch.
  hooks.admit = [this, tenant = job.line.tenant, cancel = job.cancel](
                    std::size_t batch_size,
                    const resilience::Deadline& deadline) {
    (void)batch_size;
    if (draining_.load(std::memory_order_acquire)) return false;
    if (!governor_.enabled()) return true;
    while (!governor_.Admit(tenant, obs::NowNanos())) {
      if (cancel != nullptr) cancel->ThrowIfCancelled();
      if (deadline.set() && deadline.Expired()) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  };
  JsonValue response =
      job.command->handle(job.line.json, backend, &engine_.registry(), hooks);
  // A response rendered during a SIGTERM drain is a partial by decree,
  // whatever the run itself thinks: tag it so clients never mistake a
  // drained answer for a complete one.
  if (draining_.load(std::memory_order_acquire)) {
    if (const JsonValue* result = response.Find("result")) {
      JsonValue patched = *result;
      patched.Set("degraded", true);
      response.Set("result", std::move(patched));
    }
  }
  if (const JsonValue* error = response.Find("error")) {
    obs::LogWarn(job.command->name, "job_failed",
                 JsonValue::Object().Set("error", *error));
  }
  return response.ToString();
}

JsonValue OptimizeExecutor::StatuszJson() const {
  JsonValue obj = JsonValue::Object();
  obj.Set("jobs_total", static_cast<std::int64_t>(jobs_total_->Value()))
      .Set("queue_depth", queue_depth_->Value())
      .Set("running", running_->Value());
  return obj;
}

}  // namespace sparsedet::server
