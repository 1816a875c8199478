// Bounded LRU cache for evaluated scenario results.
//
// The batch engine canonicalizes every work unit (one analyze / latency /
// simulate request, or one sweep point) into a key string; identical units
// across requests, passes and overlapping sweeps then share one evaluation.
// The cache is deliberately NOT thread-safe: the engine performs every
// lookup and insertion on its coordinator thread, in input order, so hit /
// miss / eviction counters — and therefore the emitted stats line — are
// byte-identical regardless of the worker-thread count.
//
// An entry may also carry the bytes its result renders to (JsonValue's
// compact text), so a response built around a cache hit appends them
// instead of copying and re-rendering the value. The bytes live and die
// with the entry, so they stay inside the same bound.
//
// Counters are registry-backed when a MetricsRegistry is supplied
// (engine_cache_hits_total / _misses_total / _evictions_total plus the
// engine_cache_size gauge), so a {"cmd":"stats"} snapshot sees them
// mid-stream; a standalone cache owns private equivalents.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "obs/metrics.h"

namespace sparsedet::engine {

class LruResultCache {
 public:
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  // capacity == 0 disables caching (every Get misses, Put is a no-op).
  explicit LruResultCache(std::size_t capacity);
  // Same, but counters live in `registry` under the engine_cache_* names.
  LruResultCache(std::size_t capacity, obs::MetricsRegistry& registry);

  // A cached result and its rendered bytes (null when it was put without
  // them).
  struct Hit {
    std::shared_ptr<const JsonValue> value;
    std::shared_ptr<const std::string> bytes;
  };

  // Returns the cached value and marks the entry most-recently-used, or
  // nullptr on a miss. Updates the hit/miss counters.
  std::shared_ptr<const JsonValue> Get(const std::string& key);
  // Get, plus the entry's rendered bytes.
  Hit Lookup(const std::string& key);

  // Inserts (or refreshes) an entry, evicting least-recently-used entries
  // until the size bound holds. Requires value != nullptr. `bytes`, when
  // given, must be value->ToString().
  void Put(const std::string& key, std::shared_ptr<const JsonValue> value);
  void Put(const std::string& key, std::shared_ptr<const JsonValue> value,
           std::shared_ptr<const std::string> bytes);

  Counters counters() const;
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    Hit hit;
  };

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;

  // Owned fallback counters for registry-less construction.
  struct OwnedCounters {
    obs::Counter hits, misses, evictions;
    obs::Gauge size;
  };
  std::unique_ptr<OwnedCounters> owned_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Gauge* size_gauge_;
};

}  // namespace sparsedet::engine
