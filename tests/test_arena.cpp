// test_arena.cpp — property tests for the bump allocator behind
// RouteMemo and the streaming campaign's member lists
// (src/common/arena.h).  Lives in the concurrency suite so the tsan
// preset runs the per-shard isolation property under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/arena.h"
#include "common/parallel.h"
#include "netsim/rng.h"

namespace hobbit::common {
namespace {

TEST(Arena, HonorsEveryPowerOfTwoAlignment) {
  Arena arena;
  netsim::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t alignment = std::size_t{1} << rng.NextBelow(7);  // 1..64
    const std::size_t bytes = rng.NextBelow(200);
    void* p = arena.Allocate(bytes, alignment);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignment, 0u)
        << "alignment " << alignment << " at allocation " << i;
  }
}

TEST(Arena, AllocationsNeverOverlap) {
  // Stamp every allocation with its own byte pattern, then re-verify all
  // of them: any overlap (or chunk-transition bug) clobbers an earlier
  // stamp.  A tiny first chunk forces many slow-path transitions.
  Arena arena(/*first_chunk_bytes=*/128);
  netsim::Rng rng(11);
  struct Block {
    unsigned char* data;
    std::size_t bytes;
    unsigned char stamp;
  };
  std::vector<Block> blocks;
  for (int i = 0; i < 600; ++i) {
    const std::size_t bytes = 1 + rng.NextBelow(300);
    const std::size_t alignment = std::size_t{1} << rng.NextBelow(7);
    auto* data = static_cast<unsigned char*>(arena.Allocate(bytes, alignment));
    const auto stamp = static_cast<unsigned char>(i & 0xFF);
    std::memset(data, stamp, bytes);
    blocks.push_back({data, bytes, stamp});
  }
  for (const Block& block : blocks) {
    for (std::size_t j = 0; j < block.bytes; ++j) {
      ASSERT_EQ(block.data[j], block.stamp);
    }
  }
}

TEST(Arena, GrowsPastChunkSizeAndZeroSizedRequestsAreValid) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0, 8), nullptr);
  // A single request larger than the default chunk must still be one
  // contiguous block.
  const std::size_t big = Arena::kDefaultChunkBytes * 3;
  auto* data = static_cast<unsigned char*>(arena.Allocate(big, 64));
  ASSERT_NE(data, nullptr);
  std::memset(data, 0xAB, big);
  EXPECT_EQ(data[0], 0xAB);
  EXPECT_EQ(data[big - 1], 0xAB);
  EXPECT_GE(arena.allocated_bytes(), big);
  EXPECT_GE(arena.reserved_bytes(), big);
}

TEST(Arena, ResetRetainsChunksForReuse) {
  Arena arena;
  auto churn = [&arena] {
    netsim::Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
      arena.Allocate(1 + rng.NextBelow(2048), 8);
    }
  };
  churn();
  const std::size_t allocated = arena.allocated_bytes();
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_GT(allocated, 0u);
  for (int round = 0; round < 3; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.allocated_bytes(), 0u);
    churn();
    // The same allocation sequence fits in the retained chunks: no new
    // memory, same total handed out.
    EXPECT_EQ(arena.allocated_bytes(), allocated);
    EXPECT_EQ(arena.reserved_bytes(), reserved);
  }
}

TEST(Arena, AllocateArrayValueInitializesOverDirtyMemory) {
  Arena arena;
  // Dirty the chunk, rewind, then demand zeroed arrays from the same
  // storage.
  auto* dirty = static_cast<unsigned char*>(arena.Allocate(64 * 1024, 8));
  std::memset(dirty, 0xFF, 64 * 1024);
  arena.Reset();
  struct Pod {
    std::uint32_t a;
    std::uint16_t b;
  };
  std::uint64_t* words = arena.AllocateArray<std::uint64_t>(1000);
  Pod* pods = arena.AllocateArray<Pod>(1000);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(words[i], 0u) << i;
    EXPECT_EQ(pods[i].a, 0u) << i;
    EXPECT_EQ(pods[i].b, 0u) << i;
  }
}

TEST(ArenaVector, MatchesStdVectorReference) {
  Arena arena;
  ArenaVector<std::uint64_t> actual(&arena, /*first_capacity=*/4);
  std::vector<std::uint64_t> expected;
  EXPECT_TRUE(actual.empty());
  netsim::Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t value = rng.Next();
    actual.push_back(value);
    expected.push_back(value);
  }
  ASSERT_EQ(actual.size(), expected.size());
  std::vector<std::uint64_t> out;
  actual.AppendTo(out);
  EXPECT_EQ(out, expected);
  // AppendTo appends: whatever the destination held stays in front.
  std::vector<std::uint64_t> prefixed = {7, 8};
  actual.AppendTo(prefixed);
  ASSERT_EQ(prefixed.size(), expected.size() + 2);
  EXPECT_EQ(prefixed[0], 7u);
  EXPECT_EQ(prefixed[1], 8u);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         prefixed.begin() + 2));
}

TEST(ArenaVector, GrowthNeverMovesElements) {
  Arena arena;
  ArenaVector<std::uint32_t> values(&arena, /*first_capacity=*/2);
  for (std::uint32_t i = 0; i < 100; ++i) values.push_back(i);
  std::vector<std::uint32_t> before;
  values.AppendTo(before);
  // Push enough to force several more segments; earlier elements must
  // come back unchanged and in insertion order.
  for (std::uint32_t i = 100; i < 10000; ++i) values.push_back(i);
  std::vector<std::uint32_t> after;
  values.AppendTo(after);
  ASSERT_EQ(after.size(), 10000u);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
  for (std::uint32_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], i) << i;
  }
}

// The intended deployment shape: one arena per shard, written only by
// the shard that owns it.  Under the tsan preset this doubles as a
// data-race check on the Arena fast path.
TEST(ArenaParallel, PerShardArenasStayIsolatedAcrossThreadCounts) {
  for (int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    const auto slots = static_cast<std::size_t>(pool.thread_count());
    PerShard<Arena> arenas(slots);
    constexpr std::size_t kItems = 3000;
    std::vector<std::uint32_t*> cells(kItems, nullptr);
    ForEachChunk(&pool, kItems, 1, [&](ChunkRange chunk) {
      Arena& arena = *arenas[chunk.shard];
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        auto* cell = arena.AllocateArray<std::uint32_t>(1);
        *cell = static_cast<std::uint32_t>(i);
        cells[i] = cell;
      }
    });
    std::size_t total = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      total += arenas[s]->allocated_bytes();
    }
    EXPECT_EQ(total, kItems * sizeof(std::uint32_t)) << threads;
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_NE(cells[i], nullptr) << i;
      EXPECT_EQ(*cells[i], static_cast<std::uint32_t>(i)) << i;
    }
  }
}

}  // namespace
}  // namespace hobbit::common
