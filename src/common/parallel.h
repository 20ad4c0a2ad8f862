// parallel.h — the shared deterministic thread pool.
//
// Every parallel stage in the codebase — adaptive probing, similarity-graph
// edge generation, MCL expansion/inflation, cluster validation reprobing —
// runs through this one primitive on a pool its caller owns, so that one
// pool governs a whole campaign and so that results are *bit-identical for
// any thread count*.  Library code never builds a pool: it takes a
// `ThreadPool*`, and a null pool runs the stage serially on the calling
// thread (the free `ForEach` / `ForEachChunk` / `ThreadCount` below).
// Two entry points, one discipline:
//
//  * `ForEachChunk(count, grain, body)` — the preferred primitive.  The
//    index range [0, count) is split into `shard_count` *contiguous*
//    chunks (`shard_count = min(thread_count(), ceil(count / grain))`,
//    never more than count) and `body(ChunkRange)` runs exactly once per
//    chunk.  Chunk boundaries are the balanced split — chunk s covers
//    `[s*q + min(s, r), ...)` with `q = count / shard_count`,
//    `r = count % shard_count` — a pure function of (count, shard_count),
//    so the chunk→shard map is deterministic.  Contiguous ranges keep
//    each worker streaming through adjacent output slots instead of
//    striding `i % shard_count` across the whole array (cache-hostile
//    and false-sharing-prone).  `grain` is the minimum items a chunk
//    must be worth: short ranges use fewer shards and a range that fits
//    in one chunk runs inline with zero dispatch overhead.
//  * `ForEach(count, body)` invokes `body(i)` exactly once for every
//    i in [0, count); items are assigned contiguously as above with
//    grain 1.  Bodies must be independent (no cross-item ordering) and
//    must derive any randomness from i (stable hashing / per-index
//    forked RNGs), never from a shared sequential stream.  Under that
//    discipline the outputs cannot depend on the thread count.
//
// Determinism caveat for per-shard accumulation: chunk boundaries
// depend on the effective shard count, so a body that keeps per-shard
// state must stitch its output back *in item order* (per-item slots, or
// per-chunk buffers concatenated in chunk order — chunks ascend, so that
// is item order too).  All call sites in this repository follow that
// rule; see DESIGN.md §10.
//
// There is deliberately no work stealing: stealing makes the item→worker
// assignment scheduling-dependent, which is harmless for embarrassingly
// parallel writes but poisonous the moment a body keeps per-worker state.
//
// Dispatch cost: a call publishes one plain function pointer + context
// (no per-item std::function, no heap allocation), bumps an atomic
// epoch, and wakes only workers that actually parked.  Between jobs
// workers spin briefly on the epoch before parking on a condvar, so the
// dozens of back-to-back sub-millisecond dispatches an MCL iteration
// makes do not pay a mutex/condvar round-trip each time.  Spinning is
// disabled automatically when the pool is oversubscribed
// (thread_count() > hardware_concurrency()): there, a spinning waiter
// only steals timeslices from the worker it is waiting for.
//
// Degenerate cases (all documented behaviour, exercised by
// tests/test_parallel.cpp):
//  * a requested thread count < 1 clamps to 1 (serial, no workers spawned);
//  * count == 0 returns immediately without invoking the body;
//  * count == 1 or thread_count() == 1 runs inline on the calling thread;
//  * nested use (a body calling back into the same pool) degrades to
//    serial inline execution instead of deadlocking.
//
// Exceptions thrown by bodies are captured per shard and rethrown on the
// calling thread once every shard has finished; when several shards throw,
// the lowest shard (= lowest chunk) index wins (deterministic propagation).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

namespace hobbit::common {

/// One contiguous chunk of a ForEachChunk range: items [begin, end),
/// handled by `shard` of `shard_count`.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t shard = 0;
  std::size_t shard_count = 1;

  std::size_t size() const { return end - begin; }
};

/// The balanced contiguous split: bounds of chunk `shard` when [0, count)
/// is divided into `shard_count` chunks.  Chunks ascend and differ in
/// size by at most one item; a pure function of its arguments.
inline ChunkRange ChunkBounds(std::size_t count, std::size_t shard,
                              std::size_t shard_count) {
  const std::size_t q = count / shard_count;
  const std::size_t r = count % shard_count;
  const std::size_t begin = shard * q + (shard < r ? shard : r);
  return {begin, begin + q + (shard < r ? 1 : 0), shard, shard_count};
}

// A fixed 64 rather than std::hardware_destructive_interference_size:
// the standard constant varies with compiler tuning flags (and warns
// when used in headers); 64 is the destructive-interference line on
// every target this builds for.
inline constexpr std::size_t kCacheLineSize = 64;

/// A value padded out to its own cache line.  Per-shard accumulators
/// (counters, local maxima, scratch buffers) indexed by shard live in
/// `std::vector<CacheAligned<T>>` so adjacent shards never false-share.
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};

  T& operator*() { return value; }
  const T& operator*() const { return value; }
  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
};

/// Per-shard scratch, one cache-line-aligned slot per shard.
template <typename T>
using PerShard = std::vector<CacheAligned<T>>;

/// The total of per-shard counters (e.g. packets sent per shard's prober).
template <typename T>
T SumShards(const PerShard<T>& shards) {
  T total{};
  for (const CacheAligned<T>& shard : shards) total += *shard;
  return total;
}

/// A persistent pool of `threads - 1` worker threads plus the calling
/// thread.  Construction is cheap for `threads <= 1` (no threads are
/// spawned); workers otherwise live until destruction and are reused
/// across successive dispatches.
///
/// One owner at a time: concurrent dispatches from different threads on
/// the same pool are not supported.
class ThreadPool {
 public:
  /// `threads < 1` clamps to 1.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The effective (clamped) thread count, calling thread included.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// True while the calling thread is executing a pool body (used for
  /// the nested-call serial fallback; exposed for the template fronts).
  static bool InsidePoolBody();

  /// Runs `body(chunk)` once per contiguous chunk of [0, count); see the
  /// file comment for the chunk map.  `grain` (>= 1) is the minimum
  /// chunk size worth dispatching; a range of at most `grain` items (or
  /// a nested call) runs inline as the single chunk {0, count, 0, 1}.
  template <typename Body>
  void ForEachChunk(std::size_t count, std::size_t grain, Body&& body) {
    if (count == 0) return;
    if (grain < 1) grain = 1;
    const std::size_t by_grain = (count + grain - 1) / grain;
    const std::size_t shards =
        std::min<std::size_t>(static_cast<std::size_t>(thread_count()),
                              by_grain);
    if (shards <= 1 || InsidePoolBody()) {
      body(ChunkRange{0, count, 0, 1});
      return;
    }
    struct Context {
      std::remove_reference_t<Body>* body;
      std::size_t count;
    } context{&body, count};
    DispatchRaw(shards,
                [](void* raw, std::size_t shard, std::size_t shard_count) {
                  auto* ctx = static_cast<Context*>(raw);
                  (*ctx->body)(ChunkBounds(ctx->count, shard, shard_count));
                },
                &context);
  }

  /// Runs `body(i)` exactly once for each i in [0, count), assigned as
  /// contiguous chunks (grain 1).
  template <typename Body>
  void ForEach(std::size_t count, Body&& body) {
    ForEachChunk(count, 1, [&body](ChunkRange chunk) {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) body(i);
    });
  }

  /// The batched dispatch all front-ends funnel into: runs
  /// `fn(context, shard, shards)` once per shard (the calling thread is
  /// shard 0), waits for completion, and rethrows the lowest-shard
  /// exception.  Public so the template fronts can live in the header;
  /// call the typed wrappers instead.
  void DispatchRaw(std::size_t shards,
                   void (*fn)(void*, std::size_t, std::size_t),
                   void* context);

 private:
  void WorkerLoop(std::size_t worker_index);
  void RethrowFirstError();

  std::vector<std::thread> workers_;

  // Job slot: plain fields published by the epoch bump (release) and
  // read by workers after observing the new epoch (acquire).
  void (*job_fn_)(void*, std::size_t, std::size_t) = nullptr;
  void* job_context_ = nullptr;
  std::size_t job_shards_ = 0;
  std::vector<std::exception_ptr> errors_;

  // Spin-then-park state.  `epoch_` increments per dispatch; workers
  // spin on it briefly, then register in `parked_workers_` and park on
  // `work_cv_`.  The caller waits on `pending_` symmetrically with
  // `caller_parked_` / `done_cv_`.  The seq_cst store/load pairing
  // (epoch before parked-count on the dispatcher, parked-count before
  // epoch in the would-be parker) closes the missed-wakeup race.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<int> parked_workers_{0};
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> stop_{false};
  // True when thread_count() <= hardware_concurrency(): spinning only
  // pays when waiters do not displace the workers they wait for.
  bool spin_allowed_ = false;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
};

/// The threads `pool` runs bodies on; 1 for a null pool (serial on the
/// caller).  Sizes per-shard scratch: ForEachChunk(pool, ...) never hands
/// out a shard index at or above it.
inline int ThreadCount(const ThreadPool* pool) {
  return pool != nullptr ? pool->thread_count() : 1;
}

/// True when `pool` would actually run bodies on more than one thread.
/// The shared test every caller with a serial fallback path needs.
inline bool IsParallel(const ThreadPool* pool) {
  return ThreadCount(pool) > 1;
}

/// Convenience wrappers treating a null pool as "serial": library code can
/// accept an optional `ThreadPool*` and call these unconditionally.
template <typename Body>
void ForEach(ThreadPool* pool, std::size_t count, Body&& body) {
  if (pool != nullptr) {
    pool->ForEach(count, body);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

template <typename Body>
void ForEachChunk(ThreadPool* pool, std::size_t count, std::size_t grain,
                  Body&& body) {
  if (pool != nullptr) {
    pool->ForEachChunk(count, grain, body);
    return;
  }
  if (count > 0) body(ChunkRange{0, count, 0, 1});
}

}  // namespace hobbit::common
