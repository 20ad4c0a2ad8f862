// Unit tests for the shared deterministic thread pool
// (src/common/parallel.h): shard boundary coverage, the documented
// degenerate cases, exception propagation out of worker bodies, and pool
// reuse across successive ForEach calls.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace hobbit::common {
namespace {

TEST(ThreadPool, ClampsDegenerateThreadCounts) {
  EXPECT_EQ(ThreadPool(0).thread_count(), 1);
  EXPECT_EQ(ThreadPool(-7).thread_count(), 1);
  EXPECT_EQ(ThreadPool(1).thread_count(), 1);
  EXPECT_EQ(ThreadPool(4).thread_count(), 4);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ForEach(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleItemRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::thread::id body_thread;
  pool.ForEach(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

// Every index in [0, count) must be visited exactly once, for counts
// below, at, and far above the thread count.
class ThreadPoolCoverage
    : public ::testing::TestWithParam<std::pair<int, std::size_t>> {};

TEST_P(ThreadPoolCoverage, EveryIndexExactlyOnce) {
  const auto [threads, count] = GetParam();
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> visits(count);
  pool.ForEach(count, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardBoundaries, ThreadPoolCoverage,
    ::testing::Values(std::pair<int, std::size_t>{8, 3},    // count < threads
                      std::pair<int, std::size_t>{8, 8},    // count == threads
                      std::pair<int, std::size_t>{8, 9},    // one extra item
                      std::pair<int, std::size_t>{3, 10000},  // large count
                      std::pair<int, std::size_t>{1, 100}));  // serial pool

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ForEach(100,
                            [&](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("worker failed");
                              }
                            }),
               std::runtime_error);
}

TEST(ThreadPool, LowestShardsExceptionWinsDeterministically) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      pool.ForEach(64, [&](std::size_t i) {
        throw std::runtime_error(std::to_string(i % 4));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& error) {
      // Shard s fails first at item i == s; shard 0 (the caller) wins.
      EXPECT_STREQ(error.what(), "0");
    }
  }
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ForEach(8, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> sum{0};
  pool.ForEach(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusedAcrossSuccessiveForEachCalls) {
  // The pool's persistent workers must serve many jobs back to back.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  long expected = 0;
  for (int round = 1; round <= 50; ++round) {
    const std::size_t count = static_cast<std::size_t>(round * 7 % 13 + 1);
    pool.ForEach(count, [&](std::size_t i) {
      total += static_cast<long>(i) + round;
    });
    expected += static_cast<long>(count) * round +
                static_cast<long>(count * (count - 1) / 2);
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, NestedCallsRunSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.ForEach(8, [&](std::size_t) {
    pool.ForEach(5, [&](std::size_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls.load(), 40);
}

// ---------------------------------------------------------------------
// ForEachChunk: the chunked primitive the rest of the codebase builds on.
// ---------------------------------------------------------------------

TEST(ChunkBounds, BalancedContiguousTiling) {
  // Chunks must tile [0, count) in ascending order with sizes differing
  // by at most one (the first count % shards chunks get the extra item).
  for (std::size_t count : {1u, 2u, 5u, 23u, 64u, 1000u}) {
    for (std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      if (shards > count) continue;
      std::size_t expected_begin = 0;
      const std::size_t q = count / shards;
      const std::size_t r = count % shards;
      for (std::size_t s = 0; s < shards; ++s) {
        ChunkRange chunk = ChunkBounds(count, s, shards);
        ASSERT_EQ(chunk.begin, expected_begin)
            << "count=" << count << " shards=" << shards << " s=" << s;
        ASSERT_EQ(chunk.size(), q + (s < r ? 1 : 0));
        ASSERT_EQ(chunk.shard, s);
        ASSERT_EQ(chunk.shard_count, shards);
        expected_begin = chunk.end;
      }
      ASSERT_EQ(expected_begin, count);
    }
  }
}

class ForEachChunkCoverage
    : public ::testing::TestWithParam<std::tuple<int, std::size_t,
                                                 std::size_t>> {};

TEST_P(ForEachChunkCoverage, EveryItemExactlyOnceViaChunkBounds) {
  const auto [threads, count, raw_grain] = GetParam();
  const std::size_t grain = std::max<std::size_t>(raw_grain, 1);
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> visits(count);
  std::mutex seen_mutex;
  std::vector<ChunkRange> seen;
  // Pass the raw grain (possibly 0) so the pool-side clamp is covered;
  // the expected-shards math below uses the clamped value.
  pool.ForEachChunk(count, raw_grain, [&](ChunkRange chunk) {
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) ++visits[i];
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen.push_back(chunk);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
  // The chunk map must be exactly the documented pure function of
  // (count, shard_count) with shard_count = min(threads, ceil(count /
  // grain)) — one invocation per shard.
  const std::size_t by_grain = count == 0 ? 0 : (count + grain - 1) / grain;
  const std::size_t shards =
      std::min<std::size_t>(static_cast<std::size_t>(pool.thread_count()),
                            by_grain);
  if (count == 0) {
    EXPECT_TRUE(seen.empty());
    return;
  }
  ASSERT_EQ(seen.size(), std::max<std::size_t>(shards, 1));
  std::sort(seen.begin(), seen.end(),
            [](const ChunkRange& a, const ChunkRange& b) {
              return a.shard < b.shard;
            });
  if (shards <= 1) {
    EXPECT_EQ(seen[0].begin, 0u);
    EXPECT_EQ(seen[0].end, count);
    EXPECT_EQ(seen[0].shard, 0u);
    EXPECT_EQ(seen[0].shard_count, 1u);
    return;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    ChunkRange expected = ChunkBounds(count, s, shards);
    EXPECT_EQ(seen[s].begin, expected.begin);
    EXPECT_EQ(seen[s].end, expected.end);
    EXPECT_EQ(seen[s].shard_count, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkShapes, ForEachChunkCoverage,
    ::testing::Values(
        std::tuple<int, std::size_t, std::size_t>{4, 0, 1},    // empty
        std::tuple<int, std::size_t, std::size_t>{4, 1, 1},    // one item
        std::tuple<int, std::size_t, std::size_t>{8, 3, 1},    // count < threads
        std::tuple<int, std::size_t, std::size_t>{3, 10000, 1},
        std::tuple<int, std::size_t, std::size_t>{8, 100, 40},  // grain caps shards
        std::tuple<int, std::size_t, std::size_t>{8, 100, 1000},  // grain > count
        std::tuple<int, std::size_t, std::size_t>{1, 100, 1},   // serial pool
        std::tuple<int, std::size_t, std::size_t>{7, 23, 0}));  // grain clamped to 1

TEST(ForEachChunk, GrainLimitsShardCount) {
  // 100 items at grain 40 support at most ceil(100/40) == 3 chunks even
  // on an 8-thread pool; every chunk must hold at least `grain` items
  // except possibly the remainder-bearing ones.
  ThreadPool pool(8);
  std::mutex mutex;
  std::vector<ChunkRange> seen;
  pool.ForEachChunk(100, 40, [&](ChunkRange chunk) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(chunk);
  });
  ASSERT_EQ(seen.size(), 3u);
  for (const ChunkRange& chunk : seen) {
    EXPECT_EQ(chunk.shard_count, 3u);
    EXPECT_GE(chunk.size(), 33u);
  }
}

TEST(ForEachChunk, SmallRangeRunsInlineOnCaller) {
  // count <= grain collapses to a single inline chunk on the caller.
  ThreadPool pool(8);
  std::thread::id body_thread;
  int calls = 0;
  pool.ForEachChunk(16, 16, [&](ChunkRange chunk) {
    ++calls;
    body_thread = std::this_thread::get_id();
    EXPECT_EQ(chunk.begin, 0u);
    EXPECT_EQ(chunk.end, 16u);
    EXPECT_EQ(chunk.shard, 0u);
    EXPECT_EQ(chunk.shard_count, 1u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ForEachChunk, NestedCallRunsInlineAsSingleChunk) {
  ThreadPool pool(4);
  std::atomic<int> inner_single_chunk{0};
  pool.ForEachChunk(8, 1, [&](ChunkRange) {
    pool.ForEachChunk(50, 1, [&](ChunkRange inner) {
      if (inner.begin == 0 && inner.end == 50 && inner.shard_count == 1) {
        ++inner_single_chunk;
      }
    });
  });
  // Each outer chunk saw exactly one inline inner chunk covering
  // everything (shards = min(4, 8) = 4 outer chunks).
  EXPECT_EQ(inner_single_chunk.load(), 4);
}

TEST(ForEachChunk, LowestChunksExceptionWins) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      pool.ForEachChunk(64, 1, [&](ChunkRange chunk) {
        throw std::runtime_error(std::to_string(chunk.shard));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "0");
    }
  }
}

TEST(ForEachChunk, StitchedPerShardOutputIdenticalAcrossThreadCounts) {
  // The canonical consumer pattern: each chunk appends to a per-shard
  // buffer; buffers concatenated in shard order must reproduce the
  // serial item order for every thread count.
  const std::size_t count = 997;  // prime: never divides evenly
  std::vector<std::uint64_t> reference;
  reference.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    reference.push_back(i * 2654435761u % 4093);
  }
  std::vector<int> thread_counts = {1, 2, 3, 7};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1) thread_counts.push_back(static_cast<int>(hw));
  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    PerShard<std::vector<std::uint64_t>> by_shard(
        static_cast<std::size_t>(pool.thread_count()));
    pool.ForEachChunk(count, 1, [&](ChunkRange chunk) {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        by_shard[chunk.shard]->push_back(i * 2654435761u % 4093);
      }
    });
    std::vector<std::uint64_t> stitched;
    for (const auto& shard : by_shard) {
      stitched.insert(stitched.end(), shard->begin(), shard->end());
    }
    EXPECT_EQ(stitched, reference) << "threads=" << threads;
  }
}

TEST(FreeForEach, NullPoolRunsSeriallyInOrder) {
  EXPECT_EQ(ThreadCount(nullptr), 1);
  EXPECT_FALSE(IsParallel(nullptr));
  const ThreadPool three(3);
  EXPECT_EQ(ThreadCount(&three), 3);
  EXPECT_TRUE(IsParallel(&three));
  std::vector<std::size_t> order;
  ForEach(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  int chunk_calls = 0;
  ForEachChunk(nullptr, 9, 2, [&](ChunkRange chunk) {
    EXPECT_EQ(chunk.begin, 0u);
    EXPECT_EQ(chunk.end, 9u);
    EXPECT_EQ(chunk.shard_count, 1u);
    ++chunk_calls;
  });
  EXPECT_EQ(chunk_calls, 1);
}

}  // namespace
}  // namespace hobbit::common
