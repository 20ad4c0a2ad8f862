// metrics.h — serving counters and latency percentiles.
//
// Everything here is written from the request path, so it is all relaxed
// atomics: counters tolerate reordering, and the latency histogram trades
// exactness for lock-freedom — samples land in power-of-two nanosecond
// buckets, and a percentile is reported as the geometric midpoint of the
// bucket containing that rank (within ~41% of the true value, plenty for
// "is p99 a microsecond or a millisecond").  STATS reads are torn-free
// per counter but not a consistent cross-counter snapshot, which is the
// usual contract for serving stats.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace hobbit::serve {

/// Lock-free log2-bucketed nanosecond histogram.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 48;

  void Record(std::uint64_t nanos) {
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Approximate value at quantile q in [0, 1]; 0 when empty.
  std::uint64_t Quantile(double q) const;

  std::uint64_t TotalCount() const;

 private:
  static int BucketOf(std::uint64_t nanos) {
    int bucket = 0;
    while (nanos > 1 && bucket < kBuckets - 1) {
      nanos >>= 1;
      ++bucket;
    }
    return bucket;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

struct ServeMetrics {
  std::atomic<std::uint64_t> lookups{0};         ///< single + batched queries
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> batches{0};         ///< BATCH commands served
  std::atomic<std::uint64_t> covering_queries{0};
  std::atomic<std::uint64_t> reloads{0};         ///< successful swaps
  std::atomic<std::uint64_t> failed_reloads{0};
  LatencyHistogram latency;                      ///< one sample per command
};

}  // namespace hobbit::serve
