#include "engine/cache.h"

#include "common/check.h"

namespace sparsedet::engine {

LruResultCache::LruResultCache(std::size_t capacity)
    : capacity_(capacity), owned_(std::make_unique<OwnedCounters>()) {
  hits_ = &owned_->hits;
  misses_ = &owned_->misses;
  evictions_ = &owned_->evictions;
  size_gauge_ = &owned_->size;
}

LruResultCache::LruResultCache(std::size_t capacity,
                               obs::MetricsRegistry& registry)
    : capacity_(capacity) {
  hits_ = &registry.counter("engine_cache_hits_total");
  misses_ = &registry.counter("engine_cache_misses_total");
  evictions_ = &registry.counter("engine_cache_evictions_total");
  size_gauge_ = &registry.gauge("engine_cache_size");
}

std::shared_ptr<const JsonValue> LruResultCache::Get(const std::string& key) {
  return Lookup(key).value;
}

LruResultCache::Hit LruResultCache::Lookup(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Inc();
    return {};
  }
  hits_->Inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->hit;
}

void LruResultCache::Put(const std::string& key,
                         std::shared_ptr<const JsonValue> value) {
  Put(key, std::move(value), nullptr);
}

void LruResultCache::Put(const std::string& key,
                         std::shared_ptr<const JsonValue> value,
                         std::shared_ptr<const std::string> bytes) {
  SPARSEDET_REQUIRE(value != nullptr, "cannot cache a null result");
  if (capacity_ == 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->hit = {std::move(value), std::move(bytes)};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({key, {std::move(value), std::move(bytes)}});
  entries_[key] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_->Inc();
  }
  size_gauge_->Set(static_cast<std::int64_t>(entries_.size()));
}

LruResultCache::Counters LruResultCache::counters() const {
  return {hits_->Value(), misses_->Value(), evictions_->Value()};
}

}  // namespace sparsedet::engine
