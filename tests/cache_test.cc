// Block cache (buffer pool) behaviour: LRU order, eviction, per-device
// erasure, stats, and the zero-capacity "no caching" mode the analytical
// benches use.
#include "src/cache/block_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace clio {
namespace {

std::shared_ptr<const Bytes> Payload(uint8_t tag) {
  return std::make_shared<const Bytes>(16, std::byte{tag});
}

TEST(Cache, HitAfterInsert) {
  BlockCache cache(4);
  cache.Insert({1, 10}, Payload(1));
  auto hit = cache.Lookup({1, 10});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], std::byte{1});
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, InsertKeepsTheCallersImage) {
  // The write path hands its burned image to the cache; the cache must
  // keep that very allocation rather than a copy of it.
  BlockCache cache(4);
  auto image = Payload(3);
  EXPECT_EQ(cache.Insert({1, 10}, image), image);
  EXPECT_EQ(cache.Lookup({1, 10}), image);
}

TEST(Cache, MissOnAbsentKey) {
  BlockCache cache(4);
  EXPECT_EQ(cache.Lookup({1, 10}), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  // Touch 1 so 2 becomes LRU.
  ASSERT_NE(cache.Lookup({1, 1}), nullptr);
  cache.Insert({1, 3}, Payload(3));
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({1, 3}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, ReinsertKeepsOriginalEntry) {
  // Blocks are write-once: a double insert keeps the existing entry (and
  // both the old and the returned pointer refer to it).
  BlockCache cache(4);
  auto first = cache.Insert({1, 1}, Payload(1));
  auto second = cache.Insert({1, 1}, Payload(1));
  EXPECT_EQ(first.get(), second.get());
  auto hit = cache.Lookup({1, 1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], std::byte{1});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().double_inserts, 1u);
}

TEST(Cache, DoubleInsertDoesNotEvict) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  cache.Insert({1, 1}, Payload(1));  // re-insert while full
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, EvictedBlockSurvivesForHolders) {
  BlockCache cache(1);
  auto held = cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));  // evicts block 1
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ((*held)[0], std::byte{1});  // the shared_ptr keeps it alive
}

TEST(Cache, EraseAndEraseDevice) {
  BlockCache cache(8);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  cache.Insert({2, 1}, Payload(3));
  cache.Erase({1, 1});
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);
  cache.EraseDevice(1);
  EXPECT_EQ(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({2, 1}), nullptr);
}

TEST(Cache, ZeroCapacityCachesNothing) {
  BlockCache cache(0);
  auto returned = cache.Insert({1, 1}, Payload(1));
  EXPECT_NE(returned, nullptr);  // caller still gets the block
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, HitRatioComputes) {
  BlockCache cache(4);
  cache.Insert({1, 1}, Payload(1));
  (void)cache.Lookup({1, 1});
  (void)cache.Lookup({1, 2});
  EXPECT_DOUBLE_EQ(cache.stats().HitRatio(), 0.5);
}

TEST(Cache, ConcurrentReadersShareTheCache) {
  // Striped-lock smoke test: many threads insert and look up overlapping
  // keys; every lookup must yield either nullptr or the write-once bytes.
  BlockCache cache(512);
  constexpr int kThreads = 8;
  constexpr uint64_t kBlocks = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int lap = 0; lap < 4; ++lap) {
        for (uint64_t block = 0; block < kBlocks; ++block) {
          auto hit = cache.Lookup({1, block});
          if (hit == nullptr) {
            hit = cache.Insert({1, block},
                               std::make_shared<const Bytes>(
                                   16, std::byte{static_cast<uint8_t>(block)}));
          }
          ASSERT_EQ((*hit)[0], std::byte{static_cast<uint8_t>(block)});
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * 4 * kBlocks);
}

TEST(Cache, ManyDevicesDoNotCollide) {
  BlockCache cache(1024);
  for (uint64_t device = 0; device < 8; ++device) {
    for (uint64_t block = 0; block < 32; ++block) {
      const auto tag = static_cast<uint8_t>(device * 32 + block);
      cache.Insert({device, block},
                   std::make_shared<const Bytes>(8, std::byte{tag}));
    }
  }
  for (uint64_t device = 0; device < 8; ++device) {
    for (uint64_t block = 0; block < 32; ++block) {
      auto hit = cache.Lookup({device, block});
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ((*hit)[0],
                std::byte{static_cast<uint8_t>(device * 32 + block)});
    }
  }
}

// ---------------------------------------------------------------------------
// Pin leases (zero-copy reply residency; DESIGN.md §16)

TEST(CachePin, PinnedEntrySurvivesEvictionPressure) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  auto lease = cache.Pin({1, 1});
  ASSERT_TRUE(static_cast<bool>(lease));
  EXPECT_EQ(cache.pinned_blocks(), 1u);
  // {1,1} is the LRU victim, but the lease makes the evictor pass over it
  // and take {1,2} instead.
  cache.Insert({1, 3}, Payload(3));
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({1, 3}), nullptr);
}

TEST(CachePin, ReleaseMakesEntryEvictableAgain) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  {
    auto lease = cache.Pin({1, 1});
    ASSERT_TRUE(static_cast<bool>(lease));
  }  // lease released
  EXPECT_EQ(cache.pinned_blocks(), 0u);
  cache.Lookup({1, 2});  // make {1,1} the coldest entry again
  cache.Insert({1, 3}, Payload(3));
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);  // evicted normally
}

TEST(CachePin, PinsStack) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  auto first = cache.Pin({1, 1});
  auto second = cache.Pin({1, 1});
  EXPECT_EQ(cache.pinned_blocks(), 1u);  // one block, two leases
  first.Release();
  // Still held by the second lease.
  cache.Insert({1, 3}, Payload(3));
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  second.Release();
  EXPECT_EQ(cache.pinned_blocks(), 0u);
}

TEST(CachePin, AllPinnedOvershootsCapacityInsteadOfFailing) {
  BlockCache cache(2);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  auto a = cache.Pin({1, 1});
  auto b = cache.Pin({1, 2});
  // No unpinned victim exists: the insert must proceed over capacity
  // rather than evict pinned bytes or reject the block.
  cache.Insert({1, 3}, Payload(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({1, 3}), nullptr);
}

TEST(CachePin, PinOnAbsentKeyIsEmptyNoOp) {
  BlockCache cache(2);
  auto lease = cache.Pin({9, 9});
  EXPECT_FALSE(static_cast<bool>(lease));
  EXPECT_EQ(cache.pinned_blocks(), 0u);
  lease.Release();  // harmless
}

TEST(CachePin, EraseUnderLeaseIsSafe) {
  BlockCache cache(2);
  auto image = cache.Insert({1, 1}, Payload(7));
  auto lease = cache.Pin({1, 1});
  // A pin is residency-only: Erase still drops the entry, the holder's
  // shared_ptr keeps the bytes alive, and the lease dies quietly.
  cache.Erase({1, 1});
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ((*image)[0], std::byte{7});
  lease.Release();
  EXPECT_EQ(cache.pinned_blocks(), 0u);
}

}  // namespace
}  // namespace clio
