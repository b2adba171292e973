// LRU block cache — the file server "buffer pool" (paper §1: the log
// service reuses the existing file-server mechanism such as the buffer
// pool; §3.3: the cost of a log read is determined primarily by the number
// of cache misses).
//
// Blocks are immutable once cached (log data is write-once), so lookups
// hand out shared_ptr<const Bytes>; an evicted block stays alive for any
// reader still holding it. Keys are (device_id, block_index) so one cache
// serves several mounted volumes plus the conventional file systems.
//
// Thread safety: the cache is internally synchronized by lock striping.
// Keys hash onto independent shards (each its own mutex + LRU list), so
// concurrent readers contend only when they touch the same shard — the
// write-once log's concurrent-read story (DESIGN.md §12) leans on this.
// LRU order is exact within a shard and approximate across the whole
// cache; small caches (below one block per shard) collapse to a single
// shard so the unit-testable exact-LRU behaviour is preserved.
#ifndef SRC_CACHE_BLOCK_CACHE_H_
#define SRC_CACHE_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/util/bytes.h"

namespace clio {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Insert() calls that found the key already cached. Blocks are
  // write-once, so a double insert with *different* bytes is a bug
  // upstream (debug builds assert byte equality).
  uint64_t double_inserts = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  void Reset() { *this = CacheStats{}; }
};

class BlockCache {
 public:
  // `capacity_blocks` == 0 means "cache nothing" (every lookup misses),
  // which benches use to model the paper's no-caching analyses.
  explicit BlockCache(size_t capacity_blocks);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  struct Key {
    uint64_t device_id;
    uint64_t block_index;
    bool operator==(const Key&) const = default;
  };

  // Best-effort residency lease on one cached block (DESIGN.md §16). While
  // at least one lease on a key is live, the LRU evictor skips that entry,
  // so a block referenced by an in-flight zero-copy reply stays cached
  // until the reply has been flushed. Pinning is a residency optimization
  // only — LIVENESS of the bytes is always the shared_ptr's job — so a
  // pinned entry may still be dropped by Erase/EraseDevice/Clear (the
  // lease then unpins into nothing, harmlessly). An empty lease (default
  // constructed, or from pinning a non-resident key) is a no-op.
  class PinLease {
   public:
    PinLease() = default;
    ~PinLease() { Release(); }
    PinLease(PinLease&& other) noexcept
        : cache_(other.cache_), key_(other.key_) {
      other.cache_ = nullptr;
    }
    PinLease& operator=(PinLease&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = other.cache_;
        key_ = other.key_;
        other.cache_ = nullptr;
      }
      return *this;
    }
    PinLease(const PinLease&) = delete;
    PinLease& operator=(const PinLease&) = delete;

    explicit operator bool() const { return cache_ != nullptr; }
    // Unpins early (idempotent; the destructor does the same).
    void Release();

   private:
    friend class BlockCache;
    PinLease(BlockCache* cache, const Key& key) : cache_(cache), key_(key) {}
    BlockCache* cache_ = nullptr;
    Key key_{};
  };

  // Pins `key` if it is currently resident; returns an empty lease
  // otherwise. Pins stack: an entry is evictable again only when every
  // lease on it has been released.
  PinLease Pin(const Key& key);

  // Blocks currently held by at least one pin lease (over all shards).
  size_t pinned_blocks() const;

  // Returns the cached block and bumps it to most-recently-used, or nullptr
  // on miss.
  std::shared_ptr<const Bytes> Lookup(const Key& key);

  // Inserts a block, evicting the shard's LRU entry if full. The cache
  // keeps the caller's image itself, so a writer that already holds its
  // burned image as a shared pointer caches it without a copy. Blocks are
  // write-once, so if the key is already cached the EXISTING entry is kept
  // and returned (the bytes cannot legitimately differ; see
  // CacheStats::double_inserts). Returns the cached pointer so callers can
  // keep using it without a re-lookup.
  std::shared_ptr<const Bytes> Insert(const Key& key,
                                      std::shared_ptr<const Bytes> data);

  // Unconditionally (re)places the block: the REWRITABLE-device variant,
  // used by the conventional file systems (src/vfs) whose blocks change on
  // every WriteBlock. Holders of a previously returned pointer keep the
  // old immutable snapshot. Write-once callers use Insert.
  std::shared_ptr<const Bytes> Replace(const Key& key, Bytes data);

  // Drops one block / every block of a device. Used when a block is
  // invalidated on media or a volume is unmounted.
  void Erase(const Key& key);
  void EraseDevice(uint64_t device_id);
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_blocks_; }

  // Aggregated over all shards (a point-in-time sum, by value).
  CacheStats stats() const;
  void ResetStats();

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Mix: device ids are small, block indexes dense.
      uint64_t h = k.device_id * 0x9E3779B97F4A7C15ULL + k.block_index;
      h ^= h >> 29;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    Key key;
    std::shared_ptr<const Bytes> data;
    // Live PinLease count; > 0 exempts the entry from LRU eviction.
    uint32_t pins = 0;
  };

  using LruList = std::list<Entry>;

  // One lock stripe: an independent LRU cache over its slice of the key
  // space. Stats are plain counters mutated under `mu`.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    LruList lru;  // front = most recently used
    std::unordered_map<Key, LruList::iterator, KeyHash> map;
    CacheStats stats;
  };

  // Drops one lease on `key` (no-op if the entry is gone).
  void Unpin(const Key& key);

  // Evicts the least-recently-used UNPINNED entry of `shard` if the shard
  // is at capacity. When every entry is pinned the insert proceeds over
  // capacity instead (bounded by the number of in-flight leases). Caller
  // holds shard.mu.
  void MaybeEvict(Shard& shard);

  Shard& ShardFor(const Key& key) {
    // The map consumes the low hash bits; shard selection uses the high
    // ones so stripes do not correlate with bucket placement.
    return shards_[(KeyHash{}(key) >> 57) & (shards_.size() - 1)];
  }

  size_t capacity_blocks_;
  std::vector<Shard> shards_;
};

}  // namespace clio

#endif  // SRC_CACHE_BLOCK_CACHE_H_
