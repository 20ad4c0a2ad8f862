// arena.h — bump allocation for hot-path scratch and member lists.
//
// The measurement fast path and the streaming campaign allocate many
// short-lived, variably-sized buffers (memo tables, per-block member
// lists).  The general-purpose allocator charges a lock, a size-class
// search and cache-cold metadata for each of them; an Arena charges a
// pointer bump.  The intended shape is one Arena per shard
// (`common::PerShard<Arena>`), reset between campaigns, so parallel
// stages never contend on malloc and objects that are freed together are
// also laid out together.
//
// Rules of the house:
//  * Allocations are never individually freed — `Reset()` rewinds the
//    whole arena (retaining its chunks for reuse), and the destructor
//    releases the memory.  Only trivially destructible payloads belong
//    here; `AllocateArray`/`ArenaVector` enforce that statically.
//  * An Arena is single-owner mutable state, exactly like RouteMemo: one
//    arena per thread/shard, never shared concurrently.
//  * Alignment requests must be powers of two (up to one cache line).
//
// `ArenaVector<T>` is the growable-buffer companion: a segment chain in
// arena storage, so growth never copies elements and `push_back` is a
// bump plus a bounds check.  Elements are stitched out in insertion
// order via `AppendTo`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hobbit::common {

class Arena {
 public:
  /// First chunk size; later chunks double up to kMaxChunkBytes.
  static constexpr std::size_t kDefaultChunkBytes = 1u << 16;
  static constexpr std::size_t kMaxChunkBytes = 1u << 23;
  /// Largest honored alignment (one cache line).
  static constexpr std::size_t kMaxAlignment = 64;
  /// Chunks at least this large are eligible for transparent huge pages
  /// (the kernel's THP unit on x86-64).
  static constexpr std::size_t kHugePageBytes = 2u << 20;

  struct Options {
    std::size_t first_chunk_bytes = kDefaultChunkBytes;
    /// Advise the kernel (madvise(MADV_HUGEPAGE)) to back chunks of at
    /// least kHugePageBytes with transparent huge pages, cutting TLB
    /// misses on large sweeps.  Purely advisory: a refusal (non-Linux,
    /// THP disabled) changes nothing but paging granularity.
    bool huge_pages = false;
  };

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : first_chunk_bytes_(first_chunk_bytes == 0 ? kDefaultChunkBytes
                                                  : first_chunk_bytes) {}

  explicit Arena(const Options& options)
      : first_chunk_bytes_(options.first_chunk_bytes == 0
                               ? kDefaultChunkBytes
                               : options.first_chunk_bytes),
        huge_pages_(options.huge_pages) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two,
  /// <= kMaxAlignment).  Zero-sized requests return a valid pointer.
  /// Never fails except by throwing std::bad_alloc.
  void* Allocate(std::size_t bytes, std::size_t alignment) {
    // cursor_ is an offset from the current chunk's 64-aligned origin,
    // so offset alignment == address alignment for every request up to
    // kMaxAlignment.
    std::size_t aligned = AlignUp(cursor_, alignment);
    if (chunk_index_ < chunks_.size() &&
        aligned + bytes <= chunks_[chunk_index_].usable) {
      const Chunk& chunk = chunks_[chunk_index_];
      cursor_ = aligned + bytes;
      allocated_ += bytes;
      return chunk.data.get() + chunk.origin + aligned;
    }
    return AllocateSlow(bytes, alignment);
  }

  /// `count` value-initialized Ts.  T must be trivially destructible —
  /// Reset()/~Arena() never run destructors.
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage never runs destructors");
    T* out = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (out + i) T();
    return out;
  }

  /// Rewinds to empty, retaining every chunk for reuse.  All previously
  /// returned pointers become invalid.
  void Reset() {
    chunk_index_ = 0;
    cursor_ = 0;
    allocated_ = 0;
  }

  /// Whether chunks are advised onto transparent huge pages.
  bool huge_pages() const { return huge_pages_; }

  /// Total bytes handed out since the last Reset (excludes padding).
  std::size_t allocated_bytes() const { return allocated_; }
  /// Total bytes held in chunks (high-water capacity).
  std::size_t reserved_bytes() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.usable;
    return total;
  }

  static constexpr std::size_t AlignUp(std::size_t value,
                                       std::size_t alignment) {
    return (value + alignment - 1) & ~(alignment - 1);
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t origin = 0;  ///< first 64-aligned offset within data
    std::size_t usable = 0;  ///< bytes available at data + origin
  };

  void* AllocateSlow(std::size_t bytes, std::size_t alignment);
  /// Advises the page-aligned interior of `chunk` onto huge pages (no-op
  /// off Linux or when the chunk is below kHugePageBytes).
  void AdviseHugePages(const Chunk& chunk) const;

  std::vector<Chunk> chunks_;
  std::size_t first_chunk_bytes_;
  bool huge_pages_ = false;
  std::size_t chunk_index_ = 0;  ///< chunk currently bumped into
  std::size_t cursor_ = 0;       ///< offset within the current chunk
  std::size_t allocated_ = 0;
};

/// A growable buffer of trivially destructible Ts in arena storage.  A
/// chain of geometrically growing segments: growth never moves elements,
/// so `push_back` invalidates nothing, and the only way out is an
/// in-order copy (`AppendTo`).
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_destructible_v<T>,
                "arena storage never runs destructors");

 public:
  explicit ArenaVector(Arena* arena, std::size_t first_capacity = 16)
      : arena_(arena),
        first_capacity_(first_capacity == 0 ? 16 : first_capacity) {}

  void push_back(const T& value) {
    if (tail_ == nullptr || tail_->count == tail_->capacity) Grow();
    new (tail_->data + tail_->count) T(value);
    ++tail_->count;
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends all elements, in insertion order, to `out`.
  void AppendTo(std::vector<T>& out) const {
    for (const Segment* s = head_; s != nullptr; s = s->next) {
      out.insert(out.end(), s->data, s->data + s->count);
    }
  }

 private:
  struct Segment {
    T* data = nullptr;
    std::size_t capacity = 0;
    std::size_t count = 0;
    Segment* next = nullptr;
  };

  void Grow() {
    const std::size_t capacity =
        tail_ == nullptr ? first_capacity_ : tail_->capacity * 2;
    auto* segment = static_cast<Segment*>(
        arena_->Allocate(sizeof(Segment), alignof(Segment)));
    new (segment) Segment();
    segment->data = static_cast<T*>(
        arena_->Allocate(capacity * sizeof(T), alignof(T)));
    segment->capacity = capacity;
    if (tail_ == nullptr) {
      head_ = segment;
    } else {
      tail_->next = segment;
    }
    tail_ = segment;
  }

  Arena* arena_;
  std::size_t first_capacity_;
  Segment* head_ = nullptr;
  Segment* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace hobbit::common
