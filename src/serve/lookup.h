// lookup.h — the query engine over a loaded snapshot.
//
// The hot path of the serving layer: given a validated serve::Snapshot,
// answer "which block (and classification) owns this /24" in O(log n) via
// binary search over the snapshot's packed key array, and answer
// covering-prefix queries ("which measured /24s does 20.0.0.0/16 cover")
// as one equal-range probe.  A batched entry point shards large query
// lists over the shared common::ThreadPool with the usual deterministic
// item->shard contract — output slot i always holds the answer for query
// i, whatever the thread count.
//
// The engine borrows the snapshot (no ownership): callers doing RCU
// hot-swap construct a fresh engine per acquired shared_ptr, which is one
// pointer copy — all state lives in the snapshot buffer.
//
// For snapshots large enough that the binary search's first probes are
// all cache misses, an optional EytzingerIndex accelerates the exact
// search: the same keys laid out in BFS (heap) order, so the first few
// levels of every descent share a handful of hot cache lines and deeper
// levels are prefetched ahead of the comparison that needs them.  The
// index is a pure accelerator — same answers as LowerBound by
// construction, pinned by differential tests — and is built once per
// published snapshot: by the verifying pass of the store's own loads
// (Snapshot::FromFile with an index), or by Build for a snapshot handed
// to SnapshotStore::Swap (store.h).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/parallel.h"
#include "serve/snapshot.h"

namespace hobbit::serve {

/// The shape of an Eytzinger (BFS heap) tree over `count` sorted keys:
/// node k (1-based) has children 2k and 2k+1, every level is full but
/// the last, and the last holds only its first `last_fill` nodes.  Maps a
/// node to the sorted rank of its key and back, both in closed form.
struct EytzingerShape {
  EytzingerShape() = default;
  explicit EytzingerShape(std::size_t keys) : count(keys) {
    if (keys == 0) return;
    height = static_cast<unsigned>(std::bit_width(keys)) - 1;
    last_fill = keys - ((std::size_t{1} << height) - 1);
  }

  std::size_t count = 0;
  /// Depth of the last tree level (bit_width(count) − 1), and how many
  /// nodes that level holds (1 .. 2^height).
  unsigned height = 0;
  std::size_t last_fill = 0;

  /// Sorted rank of node k (1-based), or count for k == 0.  In a perfect
  /// tree of height h, node k at depth d and level offset j sits at
  /// in-order position r = (2j+1)·2^(h−d) − 1; the last level holds only
  /// its first last_fill nodes, and each missing one (in-order position
  /// 2i, i >= last_fill) left of r shifts r down by one.
  std::size_t RankOf(std::size_t k) const {
    if (k == 0) return count;
    const auto depth = static_cast<unsigned>(std::bit_width(k)) - 1;
    return RankAt(
        ((2 * (k - (std::size_t{1} << depth)) + 1) << (height - depth)) - 1);
  }
  /// Sorted rank of the node at perfect-tree in-order position r.
  std::size_t RankAt(std::size_t r) const {
    const std::size_t left_slots = (r + 1) / 2;
    return r - (left_slots > last_fill ? left_slots - last_fill : 0);
  }
  /// The node holding the key of sorted rank `rank` (< count): the
  /// inverse of RankOf.  The first 2·last_fill ranks sit at their own
  /// in-order positions r; past them every last-level position is
  /// missing, so rank i sits at r = 2(i − last_fill) + 1.  With t = r + 1
  /// = (2j+1)·2^z, the node is at depth h − z and level offset j, i.e.
  /// node 2^(h−z) + j = ((t >> 1) | 2^h) >> z.
  std::size_t SlotOf(std::size_t rank) const {
    const std::size_t t =
        rank < 2 * last_fill ? rank + 1 : 2 * (rank - last_fill + 1);
    return ((t >> 1) | (std::size_t{1} << height)) >> std::countr_zero(t);
  }
};

/// The snapshot key array re-laid-out in Eytzinger (BFS heap) order, so
/// a search descends by index arithmetic alone and the top of the tree —
/// the levels every lookup traverses — occupies a few contiguous cache
/// lines instead of being scattered across the sorted array.  The index
/// holds the keys only: a node's sorted position is a closed form of
/// (node, count) (EytzingerShape::RankOf), which is what the engine's
/// range queries need.
class EytzingerIndex {
 public:
  /// Descents walked in lockstep by the batched entry points.  16
  /// independent descents keep ~16 cache misses in flight per tree
  /// level (memory-level parallelism), where a one-at-a-time descent
  /// serializes on each level's load.
  static constexpr std::size_t kBatchWidth = 16;

  EytzingerIndex() = default;
  /// A moved-from index is empty and holds no key array.
  EytzingerIndex(EytzingerIndex&& other) noexcept
      : keys_(std::move(other.keys_)),
        capacity_(std::exchange(other.capacity_, 0)),
        shape_(std::exchange(other.shape_, {})) {}
  EytzingerIndex& operator=(EytzingerIndex&& other) noexcept {
    keys_ = std::move(other.keys_);
    capacity_ = std::exchange(other.capacity_, 0);
    shape_ = std::exchange(other.shape_, {});
    return *this;
  }

  /// Builds the index over `snapshot`'s key section.
  static EytzingerIndex Build(const Snapshot& snapshot);
  /// Builds over an already-sorted, duplicate-free key array.
  static EytzingerIndex Build(std::span<const std::uint32_t> sorted_keys);

  /// Sizes the index for `count` keys and returns its slot array: the
  /// key of sorted rank i goes to slots[EytzingerShape(count).SlotOf(i)],
  /// and the index is valid once all `count` are written.  Every build
  /// writes through here in rank order (Build, and the verifying pass of
  /// a snapshot load).  The key array is kept when it already has room,
  /// which is how a reload recycles a retired index.
  std::uint32_t* Reshape(std::size_t count);
  /// Slots the key array holds (0 when it holds none).
  std::size_t capacity() const { return capacity_; }

  std::size_t size() const { return shape_.count; }
  bool empty() const { return shape_.count == 0; }

  /// Same keys in the same layout.
  bool operator==(const EytzingerIndex& other) const;

  /// Sorted rank of the first key >= `key` (== count when all keys are
  /// smaller) — the LowerBound analogue.
  std::size_t LowerBoundRank(std::uint32_t key) const {
    return shape_.RankOf(Descend<false>(key));
  }

  /// Sorted rank of the first key > `key`.
  std::size_t UpperBoundRank(std::uint32_t key) const {
    return shape_.RankOf(Descend<true>(key));
  }

  /// Batched LowerBoundRank: ranks[i] = LowerBoundRank(queries[i]) for
  /// all `count` queries, computed kBatchWidth descents at a time in
  /// lockstep (identical comparisons, so identical answers — pinned by
  /// differential tests).  The serve tier's BATCH path runs through
  /// this to amortize memory latency across keys.
  void LowerBoundRankBatch(const std::uint32_t* queries, std::size_t count,
                           std::size_t* ranks) const;

 private:
  /// Builds over `count` keys in rank order; `key_at(i)` yields the i-th
  /// smallest.  The one build body behind both Build overloads.
  template <typename KeyAt>
  static EytzingerIndex BuildFrom(std::size_t count, KeyAt key_at);

  /// Branchless heap descent.  Returns the 1-based node of the first key
  /// >= `key` (kUpper: > `key`), or 0 when no such key exists.
  template <bool kUpper>
  std::size_t Descend(std::uint32_t key) const;

  /// Lockstep descent of `count` (<= kBatchWidth) queries: one pass per
  /// tree level issues every live descent's load back to back, so the
  /// misses overlap instead of chaining.  nodes[i] gets Descend<false>'s
  /// result for queries[i].
  void DescendBatch(const std::uint32_t* queries, std::size_t count,
                    std::size_t* nodes) const;

  /// keys_[1..size()] in BFS order; slot 0 unused.
  std::unique_ptr<std::uint32_t[]> keys_;
  /// Slots keys_ holds; a tree of n keys needs n + 1.
  std::size_t capacity_ = 0;
  EytzingerShape shape_;
};

/// Answer for one /24 (or address) query.
struct LookupResult {
  bool found = false;
  std::uint32_t key = 0;                    // matched /24 base address
  std::uint32_t block = kNoBlock;           // owning block id or kNoBlock
  std::uint8_t class_token = kNoClass;      // Classification or kNoClass
};

/// Half-open entry-index range [begin, end) — the covering-query answer.
struct EntryRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

class LookupEngine {
 public:
  /// `index`, when non-null, must have been built over this snapshot's
  /// keys; every search then descends the Eytzinger layout instead of
  /// binary-searching the sorted array (identical answers either way).
  explicit LookupEngine(const Snapshot& snapshot,
                        const EytzingerIndex* index = nullptr)
      : snapshot_(&snapshot),
        index_(index != nullptr && index->size() == snapshot.entry_count()
                   ? index
                   : nullptr) {}

  /// Exact lookup of the /24 containing `address`.
  LookupResult Lookup(netsim::Ipv4Address address) const {
    return LookupKey(address.value() & 0xFFFFFF00u);
  }

  /// Exact lookup of a /24 prefix.  Non-/24 prefixes miss by definition
  /// (use Covering for shorter prefixes).
  LookupResult Lookup(const netsim::Prefix& prefix) const {
    if (prefix.length() != 24) return LookupResult{};
    return LookupKey(prefix.base().value());
  }

  /// Entries whose /24 lies inside `prefix` (any length).  O(log n).
  EntryRange Covering(const netsim::Prefix& prefix) const;

  /// Distinct block ids (kNoBlock excluded) across an entry range.
  std::size_t DistinctBlocks(const EntryRange& range) const;

  /// Batched exact lookups: answers[i] is the result for keys[i] (each a
  /// /24 base address).  Shards over `pool`; null pool runs serial.
  void LookupBatch(std::span<const std::uint32_t> keys,
                   std::span<LookupResult> answers,
                   common::ThreadPool* pool = nullptr) const;

  const Snapshot& snapshot() const { return *snapshot_; }

 private:
  LookupResult LookupKey(std::uint32_t key) const;
  /// The answer for `key` given its lower-bound entry index `pos`.
  LookupResult ResultAt(std::size_t pos, std::uint32_t key) const;
  /// First entry index with key >= `key` (kUpper: > `key`).
  template <bool kUpper>
  std::size_t Bound(std::uint32_t key) const;

  const Snapshot* snapshot_;
  const EytzingerIndex* index_ = nullptr;
};

}  // namespace hobbit::serve
