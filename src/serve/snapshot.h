// snapshot.h — the compiled, servable form of a Hobbit campaign.
//
// The text formats (cluster/blockio.h, hobbit/resultio.h) are the archival
// interchange forms; this is the *serving* form: a campaign's block list
// and per-/24 classifications lowered into one versioned, checksummed,
// little-endian buffer that a running service can map or read whole and
// query without any parsing, allocation, or pointer fixup.
//
// Layout (HobbitSnapshot, HSNP version 2; every integer little-endian):
//
//   offset  size  field
//   0       4     magic "HSNP"
//   4       4     u32 version            (== 2)
//   8       4     u32 header_bytes      (== 128)
//   12      4     u32 entry_count    n  (measured /24s, key-sorted)
//   16      4     u32 block_count    m  (aggregated blocks)
//   20      4     u32 hop_count      h  (last-hop pool entries)
//   24      8     u64 epoch             (producer-chosen campaign id)
//   32      8     u64 file_bytes        (exact total size of the file)
//   40      8*5   u64 section offsets: keys, blocks, classes, blocktab,
//                 hops — absolute, each 64-byte aligned, in that order,
//                 with offset == AlignUp(previous section end, 64); the
//                 padding bytes between sections are zero.  The layout
//                 is therefore a pure function of (n, m, h): two
//                 compiles of the same state are byte-identical.
//   80      8*5   u64 per-section FNV-1a 64 checksums, same order
//   120     8     u64 reserved          (== 0)
//   128           sections, at the offsets above:
//     keys      n*4   u32 /24 base addresses, strictly ascending
//     blocks    n*4   u32 owning block id, or kNoBlock
//     classes   n*1   u8  Classification value, or kNoClass
//     blocktab  m*12  u32 member_count, u32 hop_offset, u32 hop_count
//     hops      h*4   u32 last-hop addresses, per-block contiguous runs
//
// The alignment means a server can mmap the file and serve straight out
// of the page cache: every section start is cache-line aligned, no copy,
// no fixup.  Per-section checksums let a loader verify sections up front
// (the default) or defer verification for O(1) cold start
// (SnapshotLoadOptions::defer_verification; call VerifyPayload later).
// A file with any other version field is rejected with a message asking
// for a re-export.
//
// Properties the loader enforces (each has a robustness test):
//  * exact size: file_bytes, nothing truncated or trailing; section
//    offsets exactly at the aligned positions with zero padding between
//    sections;
//  * a checksum over every section;
//  * keys strictly ascending (sorted *and* duplicate-free — binary search
//    needs no further validation);
//  * every block id below m or kNoBlock, every class a valid enum value
//    or kNoClass, every blocktab hop run inside the hop pool.
//
// A loaded, verified Snapshot is therefore fully trusted by the lookup
// engine: the hot path does no bounds or validity re-checking.  A
// deferred-verification load enforces only the structural half (sizes,
// offsets) until VerifyPayload is called.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregate.h"
#include "hobbit/resultio.h"
#include "hobbit/types.h"
#include "netsim/ipv4.h"
#include "serve/wire.h"

namespace hobbit::serve {

class EytzingerIndex;  // serve/lookup.h

inline constexpr char kSnapshotMagic[4] = {'H', 'S', 'N', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotHeaderBytes = 128;
/// Section starts are aligned to this (one cache line).
inline constexpr std::size_t kSnapshotAlignment = 64;

/// Entry sentinel: measured /24 that belongs to no aggregated block.
inline constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
/// Entry sentinel: no classification archived for this /24.
inline constexpr std::uint8_t kNoClass = 0xFF;

/// FNV-1a 64 over a byte range — the section checksum.
std::uint64_t Fnv1a64(std::span<const std::byte> bytes);

/// Sections per snapshot: keys, blocks, classes, blocktab, hops.
inline constexpr std::size_t kSnapshotSections = 5;

/// All five section checksums in one pass: result[i] == Fnv1a64(
/// sections[i]) for every i.  Each chain is still the sequential byte
/// fold; the chains advance in lockstep, so their multiplies overlap
/// instead of each byte waiting on the previous one's multiply.  When the
/// shortest live section ends it drops out and the rest carry on.  The
/// snapshot writer checksums through here; a verifying load folds the
/// same chains with the same step inside its one pass over the payload,
/// which also checks the entries and fills the lookup index.
std::array<std::uint64_t, kSnapshotSections> SectionChecksums(
    const std::array<std::span<const std::byte>, kSnapshotSections>&
        sections);

/// A /24 destined for the snapshot: key plus optional classification.
/// (Adapters below build these from the archival record types.)
struct ClassifiedPrefix {
  netsim::Prefix prefix;                    // must be a /24
  std::uint8_t class_token = kNoClass;      // Classification value or kNoClass
};

std::vector<ClassifiedPrefix> ClassifiedFrom(
    std::span<const core::ResultRecord> records);
std::vector<ClassifiedPrefix> ClassifiedFrom(
    std::span<const core::BlockResult> results);

/// Lowers a block list plus (optionally empty) per-/24 classifications into
/// a snapshot buffer: the only way the program writes one.
///
/// Entries are the union: every block member /24 and every classified
/// /24, one per key, in ascending key order.  A key's block is the lowest
/// block index whose member_24s holds it, else kNoBlock; its class is the
/// first classified token for it, in input order, that is not kNoClass,
/// else kNoClass.  Resolved by rank over a bitmap of the 2^24 /24s: every
/// key sets its bit, the set bits in order are the entries, and a key's
/// entry index is the count of set bits below it.  Members then offer
/// their block ids, blocks in index order, and records their tokens, in
/// input order; an entry keeps the first of each.  No sort, whatever the
/// input order: the ranked keys, block ids and tokens are written
/// straight into the buffer's sections.
///
/// The /24-key contract: a key is the base address of its prefix, and
/// only a /24 base (low byte zero) is a loadable key -- Snapshot::
/// FromBuffer refuses any other with "entry key is not a /24 base".  A
/// member or record whose prefix is longer than /24 still resolves, as
/// its own key, so compiling one writes a file that no server loads.
std::vector<std::byte> CompileSnapshotV2(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified = {},
    std::uint64_t epoch = 0);

/// Writes `bytes` to `path` crash-safely: a temporary file in the same
/// directory is written, fsync'ed, then renamed over `path`.  A reader
/// that has the old file open or mapped keeps its old inode intact (an
/// in-place rewrite would truncate pages under a live mapping).  Returns
/// false with a message in *error on any failure; `path` is then left as
/// it was.
bool WriteSnapshotFile(const std::string& path,
                       std::span<const std::byte> bytes,
                       std::string* error = nullptr);

/// How aggressively a mapped snapshot is faulted into memory at map
/// time.  Demand paging (kNone) gives the fastest cold start but pays a
/// major-fault stall on first touch of every queried page; the prefault
/// modes trade startup latency for warm first queries.
enum class PrefaultMode : std::uint8_t {
  kNone = 0,   ///< demand paging (default)
  kWillNeed,   ///< madvise(MADV_WILLNEED): kick off async readahead
  kPopulate,   ///< MAP_POPULATE: synchronously fault every page at map
};

/// How FromFile/FromBuffer acquire and verify a snapshot.
struct SnapshotLoadOptions {
  /// FromFile only: mmap the file (MAP_PRIVATE, read-only) instead of
  /// reading it into an owned buffer.  Zero-copy: the Snapshot serves
  /// straight out of the page cache.  Falls back to an owned read on
  /// platforms without mmap.
  bool use_mmap = false;
  /// Skip the O(payload) verification work at load time (checksums and
  /// the per-entry invariant scan); only the structural header/size/
  /// offset checks run.  The cold-start win for a large mapped
  /// snapshot: nothing is faulted in until it is queried.  Callers can
  /// run the deferred work later via Snapshot::VerifyPayload.
  bool defer_verification = false;
  /// Mapped loads only (no-op for owned reads, which fault everything
  /// by construction): how much of the file to fault in at map time.
  PrefaultMode prefault = PrefaultMode::kNone;
};

/// A read-only mapped file (or, on platforms without mmap, an owned copy
/// of one).  Shared by every Snapshot copy that serves from it; unmapped
/// when the last reference drops.
class MmapSource {
 public:
  /// Maps `path` read-only.  Returns null (with a message in *error)
  /// when the file cannot be opened or mapped.  `prefault` selects how
  /// much of the mapping is faulted in up front (kPopulate adds
  /// MAP_POPULATE; kWillNeed issues madvise(MADV_WILLNEED); both fall
  /// back to demand paging where unsupported).
  static std::shared_ptr<const MmapSource> Map(
      const std::string& path, std::string* error = nullptr,
      PrefaultMode prefault = PrefaultMode::kNone);
  ~MmapSource();

  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }
  bool mapped() const { return mapped_; }

 private:
  MmapSource() = default;

  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                ///< true: munmap; false: owned copy
  std::vector<std::byte> fallback_;    ///< owns the bytes when !mapped_
};

/// One immutable loaded snapshot.  Backed either by an owned buffer or
/// by a shared MmapSource; all accessors decode in place (little-endian
/// loads compile to plain loads on LE hosts).  Copy/move rebase the
/// cached base pointer, so copies stay valid and cheap (an mmap-backed
/// copy shares the mapping).
class Snapshot {
 public:
  /// An empty snapshot (no entries, no backing store); assign a loaded
  /// one over it.
  Snapshot() = default;

  /// Validates and adopts `buffer`.  On any violation of the format
  /// contract returns nullopt and, when `error` is non-null, a message
  /// naming the first violated property.  When `index` is non-null, a
  /// returned snapshot comes with *index built over its keys (as by
  /// EytzingerIndex::Build): a verifying load writes the tree in the
  /// same pass that checks the entries, and the index's key array is
  /// reused when it has room.
  static std::optional<Snapshot> FromBuffer(
      std::vector<std::byte> buffer, std::string* error = nullptr,
      const SnapshotLoadOptions& options = {},
      EytzingerIndex* index = nullptr);

  /// Reads (or, per `options`, maps) a file and validates it; `index` as
  /// for FromBuffer.  A non-null `storage` lends the memory for an owned
  /// read: the file is read into *storage's capacity (a buffer that is
  /// overwritten in place when the file fits, so a recycled one takes no
  /// page faults), the returned snapshot owns it, and a failed load hands
  /// it back in *storage.  Mapped loads leave *storage alone.
  static std::optional<Snapshot> FromFile(
      const std::string& path, std::string* error = nullptr,
      const SnapshotLoadOptions& options = {},
      std::vector<std::byte>* storage = nullptr,
      EytzingerIndex* index = nullptr);

  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;

  std::size_t entry_count() const { return entry_count_; }
  std::size_t block_count() const { return block_count_; }
  std::size_t hop_count() const { return hop_count_; }
  std::uint64_t epoch() const { return epoch_; }
  /// FNV-1a 64 folded over the five little-endian section checksums —
  /// a stable identity of the snapshot's contents.
  std::uint64_t checksum() const { return checksum_; }
  /// True when the payload checks (checksums + invariant scan) have run.
  bool fully_verified() const { return fully_verified_; }
  /// True when the snapshot serves from a live mmap (zero-copy).
  bool is_mapped() const { return map_ != nullptr && map_->mapped(); }
  std::size_t buffer_bytes() const { return size_; }
  /// The full serialized form (header + payload), e.g. for byte-level
  /// comparison against a reference compile or for re-serialization.
  std::span<const std::byte> bytes() const { return {base_, size_}; }

  /// Runs the deferred payload verification (section checksums, entry
  /// and hop-run invariants, inter-section padding).  Returns false
  /// with a message in *error on the first violated property.  Pure:
  /// safe to call from any thread on a shared const snapshot.
  bool VerifyPayload(std::string* error = nullptr) const {
    return Verify(error, nullptr);
  }

  /// Gives up the owned buffer (empty for a mapped snapshot) and leaves
  /// this snapshot empty: how a reloader recycles the memory of a
  /// snapshot it is about to drop.
  std::vector<std::byte> TakeBuffer() &&;

  /// The i-th /24 base address (host order).  Strictly ascending in i.
  std::uint32_t EntryKey(std::size_t i) const {
    return LoadU32(keys_offset_ + i * 4);
  }
  /// The i-th entry's owning block id, or kNoBlock.
  std::uint32_t EntryBlock(std::size_t i) const {
    return LoadU32(entry_blocks_offset_ + i * 4);
  }
  /// The i-th entry's Classification value, or kNoClass.
  std::uint8_t EntryClass(std::size_t i) const {
    return static_cast<std::uint8_t>(base_[classes_offset_ + i]);
  }
  netsim::Prefix EntryPrefix(std::size_t i) const {
    return netsim::Prefix::Of(netsim::Ipv4Address(EntryKey(i)), 24);
  }

  /// Member-/24 count of block b.
  std::uint32_t BlockMemberCount(std::uint32_t b) const {
    return LoadU32(blocktab_offset_ + std::size_t{b} * 12);
  }
  /// Last-hop addresses of block b (host order), decoded into a vector.
  std::vector<netsim::Ipv4Address> BlockLastHops(std::uint32_t b) const;
  std::uint32_t BlockHopCount(std::uint32_t b) const {
    return LoadU32(blocktab_offset_ + std::size_t{b} * 12 + 8);
  }

 private:
  std::uint32_t LoadU32(std::size_t offset) const {
    return wire::ReadU32(base_ + offset);
  }
  void Rebase();
  /// Adopts *buffer and validates it; a failure hands the memory back.
  static std::optional<Snapshot> Adopt(std::vector<std::byte>* buffer,
                                       std::string* error,
                                       const SnapshotLoadOptions& options,
                                       EytzingerIndex* index);
  /// Shared loader: validates the already-adopted storage.
  bool Validate(const SnapshotLoadOptions& options, std::string* error,
                EytzingerIndex* index);
  /// The payload checks in one pass, filling *index when non-null.
  bool Verify(std::string* error, EytzingerIndex* index) const;
  /// Names the first failing entry or hop-run invariant, one property
  /// at a time; run only once the fused pass has found one.
  bool ReportEntryFailure(std::string* error) const;

  /// Exactly one of these backs the snapshot.
  std::vector<std::byte> buffer_;
  std::shared_ptr<const MmapSource> map_;
  /// Cached view over the active backing store.
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;

  bool fully_verified_ = false;
  std::size_t entry_count_ = 0;
  std::size_t block_count_ = 0;
  std::size_t hop_count_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t checksum_ = 0;
  std::size_t keys_offset_ = 0;
  std::size_t entry_blocks_offset_ = 0;
  std::size_t classes_offset_ = 0;
  std::size_t blocktab_offset_ = 0;
  std::size_t hops_offset_ = 0;
};

}  // namespace hobbit::serve
