#include "prob/memo_cache.h"

#include <algorithm>
#include <cstring>

#include "resilience/cancel.h"

namespace sparsedet::prob {
namespace {

// Field type tags keep the encoding injective: an int64 field can never be
// confused with a double field whose payload happens to match.
constexpr char kTagInt = 'i';
constexpr char kTagDouble = 'd';
constexpr char kTagBool = 'b';

void AppendFixed64(std::string* out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, sizeof(buf));
}

// FNV-1a: stable across runs and platforms, unlike std::hash, so shard
// assignment (and thus any contention pattern) is reproducible.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

MemoKey::MemoKey(std::string_view tag) {
  AppendFixed64(&bytes_, tag.size());
  bytes_.append(tag.data(), tag.size());
}

MemoKey& MemoKey::AddInt(std::int64_t value) {
  bytes_.push_back(kTagInt);
  AppendFixed64(&bytes_, static_cast<std::uint64_t>(value));
  return *this;
}

MemoKey& MemoKey::AddDouble(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  bytes_.push_back(kTagDouble);
  AppendFixed64(&bytes_, bits);
  return *this;
}

MemoKey& MemoKey::AddBool(bool value) {
  bytes_.push_back(kTagBool);
  bytes_.push_back(value ? '\1' : '\0');
  return *this;
}

MemoCache::MemoCache(std::size_t capacity_entries)
    : shards_(kShardCount), capacity_entries_(capacity_entries) {}

MemoCache& MemoCache::Global() {
  static MemoCache* cache = new MemoCache();  // leaked: see header
  return *cache;
}

void MemoCache::SetCapacity(std::size_t capacity_entries) {
  capacity_entries_.store(capacity_entries, std::memory_order_relaxed);
  const std::size_t per_shard =
      capacity_entries == 0
          ? 0
          : std::max<std::size_t>(1, capacity_entries / kShardCount);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    EvictLockedToCapacity(shard, per_shard);
  }
}

std::size_t MemoCache::capacity() const {
  return capacity_entries_.load(std::memory_order_relaxed);
}

void MemoCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) {
      entries_.fetch_sub(1, std::memory_order_relaxed);
      bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    }
    shard.index.clear();
    shard.lru.clear();
  }
}

MemoCacheStats MemoCache::Stats() const {
  MemoCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.skipped_inserts = skipped_inserts_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.capacity_entries = capacity_entries_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<MemoShardStats> MemoCache::ShardStats() {
  std::vector<MemoShardStats> out;
  out.reserve(shards_.size());
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    MemoShardStats s;
    s.entries = shard.lru.size();
    for (const Entry& entry : shard.lru) s.bytes += entry.bytes;
    out.push_back(s);
  }
  return out;
}

MemoCache::Shard& MemoCache::ShardFor(const std::string& key) {
  return shards_[Fnv1a(key) % kShardCount];
}

std::shared_ptr<const void> MemoCache::Lookup(const std::string& key) {
  if (capacity() == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

std::shared_ptr<const void> MemoCache::Insert(
    const std::string& key, std::shared_ptr<const void> value,
    std::size_t bytes) {
  const std::size_t total_capacity = capacity();
  // Never let a deadline-bearing solve warm the cache; see header. Tokens
  // that exist only for disconnect-style abandonment explicitly allow
  // inserts (a *completed* compute under one is still pure and valid).
  const resilience::CancelToken* token = resilience::CurrentCancelToken();
  if (total_capacity == 0 ||
      (token != nullptr && !token->memo_inserts_allowed())) {
    skipped_inserts_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const std::size_t per_shard =
      std::max<std::size_t>(1, total_capacity / kShardCount);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A concurrent compute for the same key beat us; share its value.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes});
  shard.index.emplace(std::string_view(shard.lru.front().key),
                      shard.lru.begin());
  inserts_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  EvictLockedToCapacity(shard, per_shard);
  return shard.lru.front().value;
}

void MemoCache::EvictLockedToCapacity(Shard& shard,
                                      std::size_t per_shard_capacity) {
  while (shard.lru.size() > per_shard_capacity) {
    const Entry& victim = shard.lru.back();
    entries_.fetch_sub(1, std::memory_order_relaxed);
    bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.index.erase(std::string_view(victim.key));
    shard.lru.pop_back();
  }
}

}  // namespace sparsedet::prob
