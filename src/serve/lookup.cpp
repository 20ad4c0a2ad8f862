#include "serve/lookup.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace hobbit::serve {

template <bool kUpper>
std::size_t EytzingerIndex::Descend(std::uint32_t key) const {
  const std::uint32_t* keys = keys_.get();
  const std::size_t count = shape_.count;
  std::size_t k = 1;
  while (k <= count) {
#if defined(__GNUC__) || defined(__clang__)
    // Pull the node four levels below into cache while the next four
    // comparisons resolve; the tail levels where k<<4 runs past the
    // array are a predictable, cheap branch.
    if ((k << 4) <= count) __builtin_prefetch(&keys[k << 4]);
#endif
    if constexpr (kUpper) {
      k = 2 * k + (keys[k] <= key);
    } else {
      k = 2 * k + (keys[k] < key);
    }
  }
  // Every right turn appended a 1 bit; shedding the trailing 1s (and one
  // more step up) lands on the last node where the search went left —
  // exactly the smallest key >= (resp. >) the probe.  k == 0 means the
  // search went right the whole way: no such key.
  k >>= static_cast<unsigned>(std::countr_one(k)) + 1;
  return k;
}

template std::size_t EytzingerIndex::Descend<false>(std::uint32_t) const;
template std::size_t EytzingerIndex::Descend<true>(std::uint32_t) const;

void EytzingerIndex::DescendBatch(const std::uint32_t* queries,
                                  std::size_t count,
                                  std::size_t* nodes) const {
  const std::uint32_t* keys = keys_.get();
  const std::size_t tree = shape_.count;
  std::size_t k[kBatchWidth];
  for (std::size_t i = 0; i < count; ++i) k[i] = 1;
  // One pass per tree level: every live descent issues its level-load
  // before any of them blocks on a comparison, so up to `count` cache
  // misses are in flight at once.  Descents reaching a leaf early (the
  // tree's last level is ragged) go dormant and the pass cost shrinks.
  bool live = tree > 0;
  while (live) {
    live = false;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t node = k[i];
      if (node > tree) continue;
#if defined(__GNUC__) || defined(__clang__)
      if ((node << 4) <= tree) __builtin_prefetch(&keys[node << 4]);
#endif
      k[i] = 2 * node + (keys[node] < queries[i]);
      live |= k[i] <= tree;
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Same trailing-ones fixup as the single-key descent.
    nodes[i] = k[i] >> (static_cast<unsigned>(std::countr_one(k[i])) + 1);
  }
}

void EytzingerIndex::LowerBoundRankBatch(const std::uint32_t* queries,
                                         std::size_t count,
                                         std::size_t* ranks) const {
  std::size_t nodes[kBatchWidth];
  for (std::size_t base = 0; base < count; base += kBatchWidth) {
    const std::size_t group = std::min(kBatchWidth, count - base);
    DescendBatch(queries + base, group, nodes);
    for (std::size_t i = 0; i < group; ++i) {
      ranks[base + i] = shape_.RankOf(nodes[i]);
    }
  }
}

std::uint32_t* EytzingerIndex::Reshape(std::size_t count) {
  if (keys_ == nullptr || capacity_ < count + 1) {
    keys_.reset();  // free the old array before taking the new one
    keys_.reset(new std::uint32_t[count + 1]);
    capacity_ = count + 1;
  }
  shape_ = EytzingerShape(count);
  return keys_.get();
}

bool EytzingerIndex::operator==(const EytzingerIndex& other) const {
  const std::size_t n = size();
  return n == other.size() &&
         (n == 0 || std::equal(keys_.get() + 1, keys_.get() + 1 + n,
                               other.keys_.get() + 1));
}

template <typename KeyAt>
EytzingerIndex EytzingerIndex::BuildFrom(std::size_t count, KeyAt key_at) {
  // Rank order: the sorted keys are read once, front to back, and each
  // tree level is written as its own forward stream.
  EytzingerIndex index;
  std::uint32_t* slots = index.Reshape(count);
  const EytzingerShape shape = index.shape_;
  for (std::size_t i = 0; i < count; ++i) slots[shape.SlotOf(i)] = key_at(i);
  return index;
}

EytzingerIndex EytzingerIndex::Build(const Snapshot& snapshot) {
  return BuildFrom(snapshot.entry_count(),
                   [&](std::size_t i) { return snapshot.EntryKey(i); });
}

EytzingerIndex EytzingerIndex::Build(
    std::span<const std::uint32_t> sorted_keys) {
  return BuildFrom(sorted_keys.size(),
                   [&](std::size_t i) { return sorted_keys[i]; });
}

template <bool kUpper>
std::size_t LookupEngine::Bound(std::uint32_t key) const {
  if (index_ != nullptr) {
    return kUpper ? index_->UpperBoundRank(key) : index_->LowerBoundRank(key);
  }
  std::size_t lo = 0;
  std::size_t hi = snapshot_->entry_count();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    const std::uint32_t probe = snapshot_->EntryKey(mid);
    if (kUpper ? probe <= key : probe < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

LookupResult LookupEngine::ResultAt(std::size_t pos, std::uint32_t key) const {
  if (pos == snapshot_->entry_count() || snapshot_->EntryKey(pos) != key) {
    return LookupResult{};
  }
  return LookupResult{true, key, snapshot_->EntryBlock(pos),
                      snapshot_->EntryClass(pos)};
}

LookupResult LookupEngine::LookupKey(std::uint32_t key) const {
  return ResultAt(Bound<false>(key), key);
}

EntryRange LookupEngine::Covering(const netsim::Prefix& prefix) const {
  // A /24 entry lies inside `prefix` iff its key is in
  // [prefix.First(), prefix.Last()]; for prefixes longer than /24 the
  // range can only catch the covering /24 itself, which is right: a /26
  // "covers" no whole /24 unless you count its parent — it does not.
  if (prefix.length() > 24) return EntryRange{};
  std::size_t begin = Bound<false>(prefix.First().value());
  std::size_t end = Bound<true>(prefix.Last().value());
  return EntryRange{begin, end};
}

std::size_t LookupEngine::DistinctBlocks(const EntryRange& range) const {
  std::vector<std::uint32_t> ids;
  ids.reserve(range.size());
  for (std::size_t i = range.begin; i < range.end; ++i) {
    std::uint32_t block = snapshot_->EntryBlock(i);
    if (block != kNoBlock) ids.push_back(block);
  }
  std::sort(ids.begin(), ids.end());
  return static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
}

void LookupEngine::LookupBatch(std::span<const std::uint32_t> keys,
                               std::span<LookupResult> answers,
                               common::ThreadPool* pool) const {
  // Chunked contiguous scheduling (PR 5): each worker streams through
  // one adjacent slice of the answer array instead of striding it, and
  // the grain keeps small batches from paying a dispatch at all — a
  // single binary search is tens of nanoseconds, so only thousands of
  // them are worth waking a worker for.  With an Eytzinger index
  // attached each worker additionally walks its slice kBatchWidth
  // descents at a time (LowerBoundRankBatch), overlapping the cache
  // misses that dominate out-of-cache lookups; the answers are pinned
  // identical to the per-key path by differential tests.
  constexpr std::size_t kLookupGrain = 4096;
  if (index_ != nullptr) {
    common::ForEachChunk(
        pool, keys.size(), kLookupGrain, [&](common::ChunkRange chunk) {
          constexpr std::size_t kWidth = EytzingerIndex::kBatchWidth;
          std::size_t ranks[kWidth];
          for (std::size_t base = chunk.begin; base < chunk.end;
               base += kWidth) {
            const std::size_t group = std::min(kWidth, chunk.end - base);
            index_->LowerBoundRankBatch(keys.data() + base, group, ranks);
            for (std::size_t i = 0; i < group; ++i) {
              answers[base + i] = ResultAt(ranks[i], keys[base + i]);
            }
          }
        });
    return;
  }
  common::ForEachChunk(pool, keys.size(), kLookupGrain,
                       [&](common::ChunkRange chunk) {
                         for (std::size_t i = chunk.begin; i < chunk.end;
                              ++i) {
                           answers[i] = LookupKey(keys[i]);
                         }
                       });
}

}  // namespace hobbit::serve
