#include "serve/metrics.h"

namespace hobbit::serve {

std::uint64_t LatencyHistogram::TotalCount() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::Quantile(double q) const {
  std::uint64_t total = TotalCount();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested sample, 1-based.
  std::uint64_t rank = static_cast<std::uint64_t>(q * (total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Geometric midpoint of [2^b, 2^(b+1)): 2^b * 1.5, except the
      // first bucket which holds 0..1 ns.
      return b == 0 ? 1 : (std::uint64_t{1} << b) + (std::uint64_t{1} << (b - 1));
    }
  }
  return std::uint64_t{1} << (kBuckets - 1);
}

}  // namespace hobbit::serve
