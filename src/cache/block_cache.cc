#include "src/cache/block_cache.h"

#include <cassert>
#include <iterator>
#include <utility>

#include "src/obs/metrics.h"

namespace clio {
namespace {

// With fewer than this many blocks of capacity the cache runs a single
// shard: striping a tiny cache would fragment it into zero-or-one-block
// stripes and break exact LRU where it is actually observable.
constexpr size_t kShardCount = 16;
constexpr size_t kMinBlocksPerShard = 16;

// Process-wide mirrors of the per-instance CacheStats, so the kStats op
// and BENCH_*.json see cache economics across every cache in the process.
// Counters are lock-free; shards increment them outside their stripe lock.
struct CacheCounters {
  Counter* hits = ObsRegistry().counter("clio.cache.hits");
  Counter* misses = ObsRegistry().counter("clio.cache.misses");
  Counter* insertions = ObsRegistry().counter("clio.cache.insertions");
  Counter* evictions = ObsRegistry().counter("clio.cache.evictions");
  Counter* double_inserts =
      ObsRegistry().counter("clio.cache.double_insert");
  // Outstanding pin leases (zero-copy replies in flight) and evictions
  // that had to pass over a pinned LRU entry.
  Gauge* pinned = ObsRegistry().gauge("clio.cache.pinned_blocks");
  Counter* pin_skips = ObsRegistry().counter("clio.cache.pin_eviction_skips");
};

CacheCounters& Counters() {
  static CacheCounters* counters = new CacheCounters();
  return *counters;
}

}  // namespace

BlockCache::BlockCache(size_t capacity_blocks)
    : capacity_blocks_(capacity_blocks),
      shards_(capacity_blocks >= kShardCount * kMinBlocksPerShard
                  ? kShardCount
                  : 1) {
  // Distribute capacity over the stripes; the remainder goes to the first
  // stripes so the total still adds up to capacity_blocks.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity =
        capacity_blocks / shards_.size() +
        (i < capacity_blocks % shards_.size() ? 1 : 0);
  }
}

void BlockCache::PinLease::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(key_);
    cache_ = nullptr;
  }
}

BlockCache::PinLease BlockCache::Pin(const Key& key) {
  if (capacity_blocks_ == 0) {
    return PinLease();  // nothing is resident; nothing to pin
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return PinLease();
  }
  ++it->second->pins;
  Counters().pinned->Add(1);
  return PinLease(this, key);
}

void BlockCache::Unpin(const Key& key) {
  // The gauge tracks leases, not entries, so it stays accurate even when a
  // pinned entry was dropped (Erase/Clear) before its lease died.
  Counters().pinned->Add(-1);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end() && it->second->pins > 0) {
    --it->second->pins;
  }
}

size_t BlockCache::pinned_blocks() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Entry& e : shard.lru) {
      if (e.pins > 0) {
        ++total;
      }
    }
  }
  return total;
}

void BlockCache::MaybeEvict(Shard& shard) {
  if (shard.map.size() < shard.capacity) {
    return;
  }
  // Walk from coldest to hottest, passing over pinned entries. If every
  // entry is pinned the shard temporarily exceeds capacity — the overshoot
  // is bounded by the number of live leases, each of which is tied to one
  // in-flight reply flush.
  for (auto it = std::prev(shard.lru.end());; --it) {
    if (it->pins == 0) {
      ++shard.stats.evictions;
      Counters().evictions->Increment();
      shard.map.erase(it->key);
      shard.lru.erase(it);
      return;
    }
    Counters().pin_skips->Increment();
    if (it == shard.lru.begin()) {
      return;
    }
  }
}

std::shared_ptr<const Bytes> BlockCache::Lookup(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.stats.misses;
    Counters().misses->Increment();
    return nullptr;
  }
  ++shard.stats.hits;
  Counters().hits->Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->data;
}

std::shared_ptr<const Bytes> BlockCache::Insert(
    const Key& key, std::shared_ptr<const Bytes> shared) {
  if (capacity_blocks_ == 0) {
    return shared;  // caching disabled; hand the block straight back
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Write-once media: the same key can only ever hold the same bytes, so
    // keep the existing entry (holders of the old pointer and of the
    // returned one must agree). A mismatch means a caller cached garbage.
    assert(*it->second->data == *shared &&
           "double insert with different bytes for a write-once block");
    ++shard.stats.double_inserts;
    Counters().double_inserts->Increment();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->data;
  }
  ++shard.stats.insertions;
  Counters().insertions->Increment();
  MaybeEvict(shard);
  shard.lru.push_front(Entry{key, shared});
  shard.map[key] = shard.lru.begin();
  return shared;
}

std::shared_ptr<const Bytes> BlockCache::Replace(const Key& key, Bytes data) {
  auto shared = std::make_shared<const Bytes>(std::move(data));
  if (capacity_blocks_ == 0) {
    return shared;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->data = shared;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return shared;
  }
  ++shard.stats.insertions;
  Counters().insertions->Increment();
  MaybeEvict(shard);
  shard.lru.push_front(Entry{key, shared});
  shard.map[key] = shard.lru.begin();
  return shared;
}

void BlockCache::Erase(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return;
  }
  shard.lru.erase(it->second);
  shard.map.erase(it);
}

void BlockCache::EraseDevice(uint64_t device_id) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.device_id == device_id) {
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void BlockCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.map.clear();
  }
}

size_t BlockCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

CacheStats BlockCache::stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.insertions += shard.stats.insertions;
    total.evictions += shard.stats.evictions;
    total.double_inserts += shard.stats.double_inserts;
  }
  return total;
}

void BlockCache::ResetStats() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.Reset();
  }
}

}  // namespace clio
