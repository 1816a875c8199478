// Persistent worker pool with a shared task queue, plus a watchdog.
//
// Unlike ParallelFor (which spawns threads per call to walk a fixed index
// range), the pool keeps its workers alive for the engine's lifetime and
// feeds them independent tasks as they arrive — the right
// shape for a stream of heterogeneous requests where one expensive
// simulate must not serialize a thousand cheap analyzes behind it. A
// one-worker pool runs its tasks in submission order, which is how the TCP
// server's long-command executor uses it.
//
// Tasks must not throw, with one sanctioned exception: a task may throw
// resilience::WorkerAbort to simulate (or report) a crashed worker. The
// worker thread running it dies; the watchdog thread joins the corpse and
// respawns a fresh worker into the same slot, so pool capacity recovers
// without coordinator involvement. Any other escaping exception keeps its
// std::terminate behavior — that is a bug, not a fault to absorb.
//
// The watchdog also (optionally) polices stuck tasks: when
// `stuck_after_ms > 0`, any task that has been running longer than that
// and was submitted with a CancelToken gets the token cancelled with
// reason kWatchdog. Cancellation stays cooperative — the watchdog never
// kills a thread that is making progress, it only raises the flag the
// solvers' CancellationPoint() calls observe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "resilience/cancel.h"

namespace sparsedet::engine {

struct WorkerPoolOptions {
  std::size_t threads = 0;  // 0 picks DefaultThreadCount()
  // When given, kept equal to the number of queued (not yet started)
  // tasks, so a stats snapshot sees backlog in real time.
  obs::Gauge* queue_depth_gauge = nullptr;
  obs::Counter* respawns_counter = nullptr;          // watchdog respawns
  obs::Counter* watchdog_cancels_counter = nullptr;  // stuck-task cancels
  // Cancel the token of any task running longer than this; 0 disables
  // stuck-task detection (crash respawn is always on).
  std::int64_t stuck_after_ms = 0;
};

class WorkerPool {
 public:
  explicit WorkerPool(const WorkerPoolOptions& options);
  // Back-compat shorthand for a pool with only a queue-depth gauge.
  explicit WorkerPool(std::size_t threads,
                      obs::Gauge* queue_depth_gauge = nullptr);
  // Drains the queue, then joins the watchdog and every worker.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Enqueues a task; a worker picks it up as soon as one is free. The
  // optional token associates the task with a cancellation target the
  // watchdog may cancel if the task gets stuck.
  void Submit(std::function<void()> task,
              std::shared_ptr<resilience::CancelToken> token = nullptr);

  // Blocks until every submitted task has finished.
  void Wait();

  std::size_t thread_count() const { return workers_.size(); }

  // Tasks submitted but not yet picked up by a worker.
  std::size_t QueueDepth() const;

  // Workers respawned after a WorkerAbort, over the pool's lifetime.
  std::uint64_t respawn_count() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<resilience::CancelToken> token;
  };
  struct ActiveSlot {
    std::shared_ptr<resilience::CancelToken> token;
    std::int64_t start_ns = 0;
    bool busy = false;
  };

  void WorkerLoop(std::size_t index);
  void WatchdogLoop();

  obs::Gauge* queue_depth_gauge_;
  obs::Counter* respawns_counter_;
  obs::Counter* watchdog_cancels_counter_;
  std::int64_t stuck_after_ms_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::deque<Task> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::condition_variable watchdog_wakeup_;
  std::vector<ActiveSlot> active_;          // per worker; guarded by mutex_
  std::vector<std::size_t> dead_workers_;   // slots awaiting respawn
  std::uint64_t respawns_ = 0;
  std::size_t active_tasks_ = 0;
  bool shutting_down_ = false;
};

}  // namespace sparsedet::engine
