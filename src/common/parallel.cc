#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "resilience/cancel.h"

namespace sparsedet {
namespace {

std::atomic<std::size_t> g_solver_threads{0};

// See ParallelOptions::work_ns_hint.
constexpr std::size_t kDispatchThresholdNs = 100000;

}  // namespace

std::size_t DefaultThreadCount() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t SetSolverThreads(std::size_t threads) {
  return g_solver_threads.exchange(threads, std::memory_order_relaxed);
}

std::size_t SolverThreads() {
  const std::size_t configured =
      g_solver_threads.load(std::memory_order_relaxed);
  return configured == 0 ? DefaultThreadCount() : configured;
}

void ParallelFor(std::size_t n, const ParallelOptions& options,
                 const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Size-aware serial guard: when the caller can estimate per-index cost
  // and the whole loop is cheaper than the measured dispatch overhead,
  // forking can only lose — run inline.
  if (options.work_ns_hint > 0 &&
      n < kDispatchThresholdNs / options.work_ns_hint) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  const std::size_t requested =
      options.threads == 0 ? SolverThreads() : options.threads;
  // Never more workers than chunks of work: a 3-index loop at grain 1
  // involves at most 3 threads (2 spawned), and a loop that fits in one
  // chunk runs entirely inline.
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t workers = std::min(requested, chunks);

  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Every worker claims the next `grain` indices from one shared cursor,
  // so a slow index holds up only the worker running it.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  const auto work = [&] {
    try {
      while (!failed.load()) {
        const std::size_t begin = cursor.fetch_add(grain);
        if (begin >= n) return;
        resilience::CancellationPoint();
        const std::size_t end = std::min(n, begin + grain);
        for (std::size_t i = begin; i < end; ++i) body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
      failed.store(true);
    }
  };

  // Workers inherit the caller's cancellation target: the token lives in a
  // thread-local, so it must be re-installed inside each spawned thread.
  const resilience::CancelToken* cancel = resilience::CurrentCancelToken();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&work, cancel] {
      resilience::ScopedCancelScope scope(cancel);
      work();
    });
  }
  work();  // the caller is worker 0
  for (std::thread& t : pool) t.join();
  // The joins order every worker's write before this read.
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  ParallelOptions options;
  options.threads = threads;
  ParallelFor(n, options, body);
}

}  // namespace sparsedet
