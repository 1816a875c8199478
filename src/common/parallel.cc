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

// One contiguous sub-range of [0, n) owned by a worker. Workers claim
// chunks from their own shard under its mutex; thieves split off the upper
// half under the same mutex, so `next`/`end` never race.
struct alignas(64) Shard {
  std::mutex mutex;
  std::size_t next = 0;
  std::size_t end = 0;
};

struct LoopState {
  std::vector<Shard> shards;
  std::size_t grain = 1;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex

  void Capture(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error == nullptr) first_error = std::move(error);
    failed.store(true, std::memory_order_release);
  }
};

// Claims up to `grain` indices from the shard; false when it is empty.
bool ClaimChunk(Shard& shard, std::size_t grain, std::size_t* begin,
                std::size_t* end) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.next >= shard.end) return false;
  *begin = shard.next;
  *end = std::min(shard.end, shard.next + grain);
  shard.next = *end;
  return true;
}

// Steals the upper half of the fullest shard into [begin, end); false when
// every shard is empty.
bool StealChunk(LoopState& state, std::size_t self, std::size_t* begin,
                std::size_t* end) {
  const std::size_t count = state.shards.size();
  std::size_t victim = count;
  std::size_t best_remaining = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i == self) continue;
    Shard& shard = state.shards[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t remaining =
        shard.end > shard.next ? shard.end - shard.next : 0;
    if (remaining > best_remaining) {
      best_remaining = remaining;
      victim = i;
    }
  }
  if (victim == count) return false;
  Shard& shard = state.shards[victim];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.next >= shard.end) return false;  // drained since we looked
  const std::size_t remaining = shard.end - shard.next;
  const std::size_t take = std::max<std::size_t>(
      std::min(remaining, state.grain), remaining / 2);
  *begin = shard.end - take;
  *end = shard.end;
  shard.end = *begin;
  return true;
}

void WorkerLoop(LoopState& state, std::size_t self,
                const std::function<void(std::size_t)>& body) {
  Shard& own = state.shards[self];
  std::size_t begin = 0;
  std::size_t end = 0;
  for (;;) {
    if (state.failed.load(std::memory_order_acquire)) return;
    if (!ClaimChunk(own, state.grain, &begin, &end)) {
      if (!StealChunk(state, self, &begin, &end)) return;
      // Adopt the stolen range as the new own shard so follow-up claims
      // stay chunk-sized instead of re-stealing per chunk.
      {
        std::lock_guard<std::mutex> lock(own.mutex);
        own.next = begin;
        own.end = end;
      }
      continue;
    }
    try {
      resilience::CancellationPoint();
      for (std::size_t i = begin; i < end; ++i) body(i);
    } catch (...) {
      state.Capture(std::current_exception());
      return;
    }
  }
}

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

  LoopState state;
  state.shards = std::vector<Shard>(workers);
  state.grain = grain;
  // Initial static partition: contiguous, near-equal shards. Stealing
  // rebalances from here, so the split only has to be roughly fair.
  const std::size_t base = n / workers;
  const std::size_t extra = n % workers;
  std::size_t start = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t size = base + (w < extra ? 1 : 0);
    state.shards[w].next = start;
    state.shards[w].end = start + size;
    start += size;
  }

  // Workers inherit the caller's cancellation target: the token lives in a
  // thread-local, so it must be re-installed inside each spawned thread.
  const resilience::CancelToken* cancel = resilience::CurrentCancelToken();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    pool.emplace_back([&state, &body, cancel, w] {
      resilience::ScopedCancelScope scope(cancel);
      WorkerLoop(state, w, body);
    });
  }
  WorkerLoop(state, /*self=*/0, body);  // the caller is worker 0
  for (std::thread& t : pool) t.join();

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state.error_mutex);
    error = state.first_error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  ParallelOptions options;
  options.threads = threads;
  ParallelFor(n, options, body);
}

}  // namespace sparsedet
