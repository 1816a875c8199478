#include "server/optimize_exec.h"

#include <chrono>
#include <utility>

#include "obs/log.h"
#include "opt/backend.h"

namespace sparsedet::server {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

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
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  worker_ = std::thread([this] { Loop(); });
}

void OptimizeExecutor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
}

void OptimizeExecutor::BeginDrain() {
  draining_.store(true, std::memory_order_release);
}

void OptimizeExecutor::Submit(
    const LongCommand& command, engine::InputLine line,
    std::shared_ptr<const resilience::CancelToken> cancel, Done done) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(
        Job{&command, std::move(line), std::move(cancel), std::move(done)});
    queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
  }
  jobs_total_->Inc();
  cv_.notify_one();
}

void OptimizeExecutor::Loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Stop drains: every submitted job still answers (the server's
      // outstanding-response accounting depends on it).
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Set(static_cast<std::int64_t>(queue_.size()));
    }
    running_->Set(1);
    std::string response = RunJob(job);
    running_->Set(0);
    if (job.done) job.done(std::move(response));
  }
}

std::string OptimizeExecutor::RunJob(Job& job) {
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
    while (!governor_.Admit(tenant, NowNs())) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  obj.Set("jobs_total", static_cast<std::int64_t>(jobs_total_->Value()))
      .Set("queue_depth", static_cast<std::int64_t>(queue_.size()))
      .Set("running", running_->Value());
  return obj;
}

}  // namespace sparsedet::server
