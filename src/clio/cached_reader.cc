#include "src/clio/cached_reader.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"

namespace clio {

Result<std::shared_ptr<const Bytes>> CachedBlockReader::Fetch(
    uint64_t block, OpStats* stats) {
  if (stats != nullptr) {
    ++stats->blocks_read;
  }
  if (cache_ != nullptr) {
    auto hit = cache_->Lookup({cache_device_id_, block});
    if (hit != nullptr) {
      if (stats != nullptr) {
        ++stats->cache_hits;
      }
      return hit;
    }
  }
  if (stats != nullptr) {
    ++stats->device_reads;
  }
  auto image = std::make_shared<Bytes>(device_->block_size());
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(block, *image));
  if (cache_ != nullptr) {
    return cache_->Insert({cache_device_id_, block}, std::move(image));
  }
  return std::shared_ptr<const Bytes>(std::move(image));
}

Result<std::shared_ptr<const Bytes>> CachedBlockReader::FetchSequential(
    uint64_t block, uint64_t limit, uint32_t readahead, OpStats* stats,
    Counter* readahead_counter) {
  if (cache_ == nullptr || readahead == 0 || limit <= block + 1) {
    return Fetch(block, stats);
  }
  if (stats != nullptr) {
    ++stats->blocks_read;
  }
  auto hit = cache_->Lookup({cache_device_id_, block});
  if (hit != nullptr) {
    if (stats != nullptr) {
      ++stats->cache_hits;
    }
    return hit;
  }
  if (stats != nullptr) {
    ++stats->device_reads;
  }
  const uint32_t block_bytes = device_->block_size();
  const uint64_t count =
      std::min<uint64_t>(static_cast<uint64_t>(readahead) + 1, limit - block);
  Bytes run(count * block_bytes);
  auto got = device_->ReadBlocks(block, count, run);
  if (!got.ok()) {
    return got.status();  // the demanded block itself failed to read
  }
  static Counter* readahead_blocks =
      ObsRegistry().counter("clio.cache.readahead_blocks");
  if (readahead_counter == nullptr) {
    readahead_counter = readahead_blocks;
  }
  std::shared_ptr<const Bytes> demanded;
  for (uint64_t i = 0; i < got.value(); ++i) {
    auto cached = cache_->Insert(
        {cache_device_id_, block + i},
        std::make_shared<const Bytes>(run.begin() + i * block_bytes,
                                      run.begin() + (i + 1) * block_bytes));
    if (i == 0) {
      demanded = std::move(cached);
    } else {
      readahead_counter->Increment();
    }
  }
  return demanded;
}

std::shared_ptr<void> CachedBlockReader::Pin(uint64_t block) {
  if (cache_ == nullptr) {
    return nullptr;
  }
  BlockCache::PinLease lease = cache_->Pin({cache_device_id_, block});
  if (!lease) {
    return nullptr;
  }
  return std::make_shared<BlockCache::PinLease>(std::move(lease));
}

void CachedBlockReader::Put(uint64_t block,
                            std::shared_ptr<const Bytes> image) {
  if (cache_ != nullptr) {
    cache_->Insert({cache_device_id_, block}, std::move(image));
  }
}

void CachedBlockReader::Evict(uint64_t block) {
  if (cache_ != nullptr) {
    cache_->Erase({cache_device_id_, block});
  }
}

}  // namespace clio
