// Data-parallel helper for embarrassingly parallel loops (Monte-Carlo
// trials, the literal region enumeration, parameter sweeps).
//
// ParallelFor runs `body(i)` for every i in [0, n) on up to `threads`
// workers. Every worker claims the next `grain` indices from one shared
// atomic cursor (one atomic add per claim, no lock), so uneven per-index
// costs (Monte-Carlo trials vary with the track drawn) cannot leave
// workers idle behind a long static partition.
//
// Contracts:
//   * Results must be written to pre-sized storage indexed by `i` (or
//     accumulated commutatively); the helper performs no synchronization
//     beyond joining the workers, and callers that reduce must do so in
//     deterministic index order so output is byte-identical for any thread
//     count.
//   * The calling thread participates as worker 0, and no more workers are
//     spawned than there are chunks of work: ceil(n / grain) - 1 spawned
//     threads at most, zero when the loop fits in one chunk.
//   * Exceptions thrown by `body` are captured (first one wins, guarded by
//     a mutex — no racy exception_ptr writes) and rethrown on the calling
//     thread after all workers have stopped.
//   * Cancellation-aware: the caller's resilience::CancelToken (if any) is
//     re-installed inside every worker and checked via CancellationPoint()
//     between chunks, so a timed-out solve stops burning CPU on every
//     worker and the Cancelled exception surfaces on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace sparsedet {

// Number of workers ParallelFor uses when no explicit count and no solver
// default is configured: std::thread::hardware_concurrency(), at least 1.
std::size_t DefaultThreadCount();

// Process-wide default worker count for ParallelFor calls with
// `threads == 0` (the "--solver-threads" knob). 0 restores the hardware
// default. Set once at startup / engine construction; reads are lock-free.
// Returns the previous setting so scoped owners (BatchEngine) can restore.
std::size_t SetSolverThreads(std::size_t threads);

// The resolved default: the configured solver-thread count, or
// DefaultThreadCount() when unconfigured. Always >= 1.
std::size_t SolverThreads();

struct ParallelOptions {
  // Worker count; 0 uses SolverThreads(), 1 runs inline on the caller.
  std::size_t threads = 0;
  // Indices per claimed chunk. Raise for very cheap bodies so the
  // per-chunk claim cost (one atomic add on the shared cursor) amortizes.
  std::size_t grain = 1;
  // Rough per-index cost estimate in nanoseconds; 0 = unknown. When given,
  // the loop stays serial whenever n * work_ns_hint falls below 100 us,
  // above the measured 9.6-74 us dispatch cost (BENCH_PR5.json
  // BM_ParallelForDispatch), so small loops skip the spawn/join cost
  // entirely. Results are byte-identical either way (the ParallelFor
  // contract already requires thread-count independence), so the hint
  // only ever changes speed, never output.
  std::size_t work_ns_hint = 0;
};

// Runs body(i) for all i in [0, n).
void ParallelFor(std::size_t n, const ParallelOptions& options,
                 const std::function<void(std::size_t)>& body);

// Shorthand keeping the original signature: `threads == 0` picks the
// solver default; `threads == 1` runs inline (useful for debugging and
// determinism tests — though results must not depend on thread count by
// construction).
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads = 0);

}  // namespace sparsedet
