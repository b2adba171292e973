// Block fetch path: cache in front of the log device, with per-operation
// cost accounting. The paper's read-cost analysis (§3.3) is entirely in
// terms of which block fetches hit the server's block cache and which go to
// the device, so every fetch can report into an OpStats.
#ifndef SRC_CLIO_CACHED_READER_H_
#define SRC_CLIO_CACHED_READER_H_

#include <cstdint>
#include <memory>

#include "src/cache/block_cache.h"
#include "src/clio/types.h"
#include "src/device/block_device.h"
#include "src/util/status.h"

namespace clio {

class Counter;  // src/obs/metrics.h

class CachedBlockReader {
 public:
  // `cache` may be null (uncached reads, used by the no-caching analyses).
  // `cache_device_id` namespaces this device's blocks within the shared
  // buffer pool.
  CachedBlockReader(WormDevice* device, BlockCache* cache,
                    uint64_t cache_device_id)
      : device_(device), cache_(cache), cache_device_id_(cache_device_id) {}

  // Fetches a block image, consulting the cache first. Never caches failed
  // reads. kNotWritten/kOutOfRange propagate from the device.
  Result<std::shared_ptr<const Bytes>> Fetch(uint64_t block, OpStats* stats);

  // Fetch for a forward scan: a cache miss pulls `block` AND up to
  // `readahead` following blocks (bounded by `limit`, exclusive) from the
  // device in one pass (WormDevice::ReadBlocks), caching them all. Only
  // the demanded block is charged to `stats`; the speculative blocks show
  // up later as cache hits. Speculative blocks count into
  // `readahead_counter` when given, else into the default
  // clio.cache.readahead_blocks — bulk internal scans (extent index
  // rebuild, checkpoint replay) pass their own counter so demand-path
  // readahead stats stay clean. Falls back to Fetch when caching or
  // readahead is off.
  Result<std::shared_ptr<const Bytes>> FetchSequential(
      uint64_t block, uint64_t limit, uint32_t readahead, OpStats* stats,
      Counter* readahead_counter = nullptr);

  // Type-erased cache-residency pin on `block` for zero-copy payload
  // segments (PayloadSegment::pin): holds a BlockCache::PinLease so the
  // block is exempt from LRU eviction until the pin is dropped. Null when
  // the block is not resident (or caching is off) — liveness then rests on
  // the segment's shared image alone, which is always sufficient.
  std::shared_ptr<void> Pin(uint64_t block);

  // Inserts a freshly burned block image (write path keeps the cache warm,
  // mirroring the paper's observation that recent data is read from cache).
  // The cache shares the writer's image; nothing is copied.
  void Put(uint64_t block, std::shared_ptr<const Bytes> image);

  // Drops a block (after invalidation re-burns it to 1s).
  void Evict(uint64_t block);

  WormDevice* device() { return device_; }
  uint64_t cache_device_id() const { return cache_device_id_; }

 private:
  WormDevice* device_;
  BlockCache* cache_;
  uint64_t cache_device_id_;
};

}  // namespace clio

#endif  // SRC_CLIO_CACHED_READER_H_
