// Process-wide sharded memo cache for solver sub-results.
//
// A parameter sweep evaluates hundreds of nearby (N, v, k, ...) points, and
// most of the expensive sub-results — per-NEDR Region(i) report PMFs,
// capped-region convolution chains, S-approach region enumerations — depend
// only on a small parameter tuple that repeats across sweep points and
// across batch-engine requests. The memo cache keys those tuples
// canonically (bit-exact doubles, fixed-width integers, a per-call-site
// type tag) and shares the computed values process-wide, so a 200-point
// sweep derives each sub-PMF once instead of 200 times.
//
// Concurrency and determinism:
//   * The cache is sharded (FNV-1a over the key bytes picks the shard);
//     each shard is an independent mutex-guarded LRU list with its own
//     counters, on cache lines of its own, so parallel workers rarely
//     contend on the same lock or line. Stats() sums the shards.
//   * Values are immutable (`shared_ptr<const T>`) and computed by pure
//     functions of their key, so a hit returns a value bitwise identical to
//     what a fresh compute would produce — cold vs. warm cache cannot
//     change solver output, only its speed.
//   * compute() runs outside any shard lock. Two threads may race to
//     compute the same key; the first insert wins and the loser adopts the
//     winner's value, so all callers share one instance.
//   * Inserts are skipped while a resilience::CancelToken is installed on
//     the calling thread. A deadline-bearing solve therefore never
//     populates the cache: either its compute() throws Cancelled (no value
//     exists), or the completed value is discarded after use. This keeps
//     "cancelled solves never warm the cache" a structural guarantee
//     instead of a races-permitting best effort. Lookups still hit.
//
// Capacity is counted in entries (the `--memo-cache-entries` knob); 0
// disables the cache entirely (every call computes). Approximate byte usage
// is tracked per entry via a caller-supplied estimator for the obs gauges.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sparsedet::prob {

// Canonical, injective key builder. Every field is encoded as a one-byte
// type tag plus a fixed-width little-endian payload, and the constructor
// tag names the call site's value type, so keys from different memoized
// functions can never alias even when their parameters coincide.
class MemoKey {
 public:
  explicit MemoKey(std::string_view tag);

  MemoKey& AddInt(std::int64_t value);
  // Doubles are keyed by their IEEE-754 bit pattern: two inputs share a key
  // only when they are bit-identical, which is exactly the determinism
  // contract (no epsilon aliasing that could return a near-miss value).
  MemoKey& AddDouble(double value);
  MemoKey& AddBool(bool value);

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

struct MemoCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  // Completed computes whose insert was suppressed because a CancelToken
  // forbidding memo inserts was installed (deadline-bearing solve) or the
  // cache is disabled.
  std::uint64_t skipped_inserts = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t capacity_entries = 0;
};

// Per-shard occupancy, for the admin plane's /statusz (a skewed shard is
// the first symptom of a bad key distribution).
struct MemoShardStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

class MemoCache {
 public:
  static constexpr std::size_t kDefaultCapacityEntries = 4096;

  explicit MemoCache(std::size_t capacity_entries = kDefaultCapacityEntries);

  // The process-wide instance shared by every solve and engine request.
  // Intentionally leaked so worker threads draining during process exit
  // never race static destruction.
  static MemoCache& Global();

  // Resizing evicts LRU entries as needed; 0 disables caching.
  void SetCapacity(std::size_t capacity_entries);
  std::size_t capacity() const;

  void Clear();
  // Sums the shards' counters; takes each shard mutex briefly.
  MemoCacheStats Stats() const;
  // One entry per shard, in shard order. Takes each shard mutex briefly.
  std::vector<MemoShardStats> ShardStats();

  // Returns the cached value for `key`, or computes, (maybe) inserts, and
  // returns it. `bytes_of` estimates the value's heap footprint for the
  // obs gauges; omit it for flat value types.
  template <typename T, typename Compute>
  std::shared_ptr<const T> GetOrCompute(
      const MemoKey& key, Compute&& compute,
      const std::function<std::size_t(const T&)>& bytes_of = nullptr) {
    if (std::shared_ptr<const void> found = Lookup(key.bytes())) {
      return std::static_pointer_cast<const T>(std::move(found));
    }
    auto value = std::make_shared<const T>(compute());
    const std::size_t bytes =
        sizeof(T) + (bytes_of ? bytes_of(*value) : std::size_t{0});
    std::shared_ptr<const void> resident =
        Insert(key.bytes(), value, bytes);
    if (resident != nullptr) {
      return std::static_pointer_cast<const T>(std::move(resident));
    }
    return value;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  // Aligned to a (64-byte) cache line, so one shard's lock and counters
  // never share a line with another's.
  struct alignas(64) Shard {
    mutable std::mutex mutex;  // Stats() is const
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    // Guarded by `mutex`; the entry count is lru.size().
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t skipped_inserts = 0;
    std::uint64_t bytes = 0;
  };

  std::shared_ptr<const void> Lookup(const std::string& key);
  // Returns the entry now resident under `key` (an earlier racer's value if
  // one beat us), or nullptr when the insert was suppressed.
  std::shared_ptr<const void> Insert(const std::string& key,
                                     std::shared_ptr<const void> value,
                                     std::size_t bytes);
  Shard& ShardFor(const std::string& key);
  void EvictLockedToCapacity(Shard& shard, std::size_t per_shard_capacity);

  static constexpr std::size_t kShardCount = 16;
  std::vector<Shard> shards_;
  std::atomic<std::size_t> capacity_entries_;
};

}  // namespace sparsedet::prob
