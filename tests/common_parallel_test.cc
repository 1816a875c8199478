// ParallelFor contract tests beyond the smoke coverage in common_test.cc:
// small-n thread budgeting (never more workers than chunks), grain
// handling, shared-cursor correctness under pathologically uneven loads,
// race-free first-exception capture, cancellation propagation into
// workers, and the SetSolverThreads scoped-restore protocol. These run
// under the TSan CI job, so any data race inside the loop machinery or
// the exception path is a test failure there even when the assertions
// here pass.
#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "resilience/cancel.h"

namespace sparsedet {
namespace {

// Counts the distinct threads that execute loop bodies.
class ThreadCounter {
 public:
  void Note() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
  }
  std::size_t distinct() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ids_.size();
  }
  bool caller_participated() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ids_.count(std::this_thread::get_id()) > 0;
  }

 private:
  mutable std::mutex mutex_;
  std::set<std::thread::id> ids_;
};

TEST(ParallelForBudget, SmallLoopsNeverOverSpawn) {
  // n = 1 with a huge thread request must run on exactly one thread (the
  // caller): there is only one chunk of work, so zero spawns.
  ThreadCounter counter;
  ParallelFor(1, [&](std::size_t) { counter.Note(); }, 64);
  EXPECT_EQ(counter.distinct(), 1u);
  EXPECT_TRUE(counter.caller_participated());
}

TEST(ParallelForBudget, WorkerCountIsBoundedByChunkCount) {
  // 10 indices at grain 4 -> ceil(10/4) = 3 chunks, so at most 3 distinct
  // threads may touch the loop no matter how many were requested.
  ThreadCounter counter;
  std::atomic<int> count{0};
  ParallelOptions options;
  options.threads = 32;
  options.grain = 4;
  ParallelFor(10, options, [&](std::size_t) {
    counter.Note();
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 10);
  EXPECT_LE(counter.distinct(), 3u);
}

TEST(ParallelForBudget, GrainCoversWholeLoopRunsInline) {
  ThreadCounter counter;
  ParallelOptions options;
  options.threads = 8;
  options.grain = 1000;
  ParallelFor(100, options, [&](std::size_t) { counter.Note(); });
  EXPECT_EQ(counter.distinct(), 1u);
  EXPECT_TRUE(counter.caller_participated());
}

TEST(ParallelForCursor, UnevenLoadStillRunsEveryIndexOnce) {
  // Front-loaded cost: index 0 is ~1000x the others, so the worker that
  // claims it stalls and the rest must drain the cursor around it. At
  // every grain, including one that does not divide kN, every index still
  // runs exactly once.
  constexpr std::size_t kN = 512;
  for (std::size_t grain : {1, 3, 64}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    std::atomic<std::uint64_t> sink{0};
    ParallelOptions options;
    options.threads = 4;
    options.grain = grain;
    ParallelFor(kN, options, [&](std::size_t i) {
      const int spins = i == 0 ? 200000 : 200;
      std::uint64_t acc = 0;
      for (int s = 0; s < spins; ++s) acc += s * (i + 1);
      sink.fetch_add(acc, std::memory_order_relaxed);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ParallelForExceptions, FirstExceptionWinsAndLoopDrains) {
  // Many indices throw concurrently; exactly one exception must surface
  // (no torn exception_ptr, no terminate from a second in-flight throw),
  // and it must be one actually thrown by the body.
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      ParallelFor(
          256,
          [&](std::size_t i) {
            if (i % 3 == 0) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
          },
          8);
      FAIL() << "ParallelFor must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
    }
  }
}

TEST(ParallelForExceptions, InlinePathPropagatesToo) {
  EXPECT_THROW(
      ParallelFor(4, [](std::size_t) { throw std::logic_error("inline"); }, 1),
      std::logic_error);
}

TEST(ParallelForCancellation, PreCancelledTokenStopsTheLoop) {
  // With an already-cancelled token installed on the caller, the between-
  // chunk CancellationPoint fires and the Cancelled exception surfaces on
  // the calling thread; the loop must not run all indices.
  const resilience::CancelToken token;
  token.Cancel(resilience::CancelReason::kUser);
  const resilience::ScopedCancelScope scope(&token);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(
                   100000, [&](std::size_t) { ran.fetch_add(1); }, 4),
               resilience::Cancelled);
  EXPECT_LT(ran.load(), 100000);
}

TEST(ParallelForCancellation, TokenReachesSpawnedWorkers) {
  // The caller's token must be re-installed inside every spawned worker:
  // each body observes CurrentCancelToken() == the caller's token.
  const resilience::CancelToken token;
  const resilience::ScopedCancelScope scope(&token);
  std::atomic<int> seen{0};
  std::atomic<int> total{0};
  ParallelFor(
      64,
      [&](std::size_t) {
        total.fetch_add(1);
        if (resilience::CurrentCancelToken() == &token) seen.fetch_add(1);
      },
      4);
  EXPECT_EQ(seen.load(), total.load());
}

TEST(ParallelForCancellation, MidLoopCancelStopsRemainingChunks) {
  const resilience::CancelToken token;
  const resilience::ScopedCancelScope scope(&token);
  std::atomic<int> ran{0};
  ParallelOptions options;
  options.threads = 2;
  options.grain = 1;
  try {
    ParallelFor(100000, options, [&](std::size_t) {
      if (ran.fetch_add(1) == 50) {
        token.Cancel(resilience::CancelReason::kUser);
      }
    });
    // Workers may have drained their final chunks before noticing; reaching
    // here without Cancelled is only acceptable if cancellation landed
    // after the loop finished, which the count below rules out.
  } catch (const resilience::Cancelled&) {
    // expected path
  }
  EXPECT_LT(ran.load(), 100000);
}

TEST(SolverThreads, SetReturnsPreviousAndZeroRestoresHardware) {
  const std::size_t original = SetSolverThreads(3);
  EXPECT_EQ(SolverThreads(), 3u);
  EXPECT_EQ(SetSolverThreads(0), 3u);
  EXPECT_EQ(SolverThreads(), DefaultThreadCount());
  SetSolverThreads(original);
}

TEST(SolverThreads, ThreadsZeroUsesConfiguredDefault) {
  // With the solver default pinned to 1, a threads==0 loop runs inline.
  const std::size_t original = SetSolverThreads(1);
  ThreadCounter counter;
  ParallelFor(64, [&](std::size_t) { counter.Note(); });
  EXPECT_EQ(counter.distinct(), 1u);
  SetSolverThreads(original);
}

}  // namespace
}  // namespace sparsedet
