#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "common/popcount.h"
#include "serve/lookup.h"
#include "serve/wire.h"

#if defined(__unix__) || defined(__APPLE__)
#define HOBBIT_HAS_MMAP 1
#include <sys/mman.h>
#endif

namespace hobbit::serve {
namespace {

using wire::ReadU32;
using wire::ReadU64;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// The five section offsets (keys, blocks, classes, blocktab, hops) —
/// a pure function of the counts, each AlignUp(previous end, 64).
struct SectionLayout {
  std::uint64_t offsets[kSnapshotSections];
  std::uint64_t sizes[kSnapshotSections];
  std::uint64_t file_bytes;

  /// The sections of a buffer laid out like this, in header order.
  std::array<std::span<const std::byte>, kSnapshotSections> Sections(
      const std::byte* base) const {
    std::array<std::span<const std::byte>, kSnapshotSections> sections;
    for (std::size_t i = 0; i < kSnapshotSections; ++i) {
      sections[i] = {base + offsets[i], static_cast<std::size_t>(sizes[i])};
    }
    return sections;
  }
};

SectionLayout LayoutFor(std::uint64_t n, std::uint64_t m, std::uint64_t h) {
  SectionLayout layout;
  layout.sizes[0] = n * 4;  // keys
  layout.sizes[1] = n * 4;  // blocks
  layout.sizes[2] = n;      // classes
  layout.sizes[3] = m * 12; // blocktab
  layout.sizes[4] = h * 4;  // hops
  std::uint64_t cursor = kSnapshotHeaderBytes;
  for (int i = 0; i < 5; ++i) {
    cursor = (cursor + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1);
    layout.offsets[i] = cursor;
    cursor += layout.sizes[i];
  }
  layout.file_bytes = cursor;
  return layout;
}

const char* const kSectionNames[5] = {"keys", "blocks", "classes",
                                      "blocktab", "hops"};

bool LoadFail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Reads up to `size` bytes from `fd` into `data`; returns how many it
/// got before end of file or a read error.
std::size_t ReadUpTo(int fd, std::byte* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t r = ::read(fd, data + got, size - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// Replaces *out with the whole file at `path`.  The buffer is sized once
/// from fstat, so the file is copied once and never held twice; bytes
/// past the stat'ed size (a file still growing) are appended after.  A
/// buffer with the capacity is overwritten in place (a recycled one is
/// already faulted in); one too small is freed first, so growing it
/// copies nothing.  A read error ends the file early, which the loader
/// then rejects as truncated.  False when the file cannot be opened.
bool ReadWholeFile(const std::string& path, std::vector<std::byte>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st;
  const std::size_t size =
      ::fstat(fd, &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
  if (size > out->capacity()) *out = std::vector<std::byte>();
  out->resize(size);
  out->resize(ReadUpTo(fd, out->data(), size));
  if (out->size() == size) {
    std::byte chunk[64 * 1024];
    while (const std::size_t got = ReadUpTo(fd, chunk, sizeof(chunk))) {
      out->insert(out->end(), chunk, chunk + got);
    }
  }
  ::close(fd);
  return true;
}

/// One FNV-1a 64 step: every checksum of the format is a chain of these.
inline std::uint64_t FnvStep(std::uint64_t hash, std::byte byte) {
  return (hash ^ std::to_integer<std::uint64_t>(byte)) * kFnvPrime;
}

/// Four steps, over p[0..3].
inline std::uint64_t FnvStep4(std::uint64_t hash, const std::byte* p) {
  hash = FnvStep(hash, p[0]);
  hash = FnvStep(hash, p[1]);
  hash = FnvStep(hash, p[2]);
  return FnvStep(hash, p[3]);
}

template <std::size_t N>
using Lanes = std::make_index_sequence<N>;

/// Advances one FNV-1a chain per lane L by `count` bytes each, one byte
/// per chain per step.  The chains are independent, so each step issues
/// one multiply per lane that overlap rather than one the next byte
/// waits on.  The fold expression spells every lane out, so the chains
/// live in registers at any optimization level.
template <std::size_t... L>
void FoldLockstep(std::index_sequence<L...>, const std::byte** cursors,
                  std::uint64_t* hashes, std::size_t count) {
  const std::byte* const p[] = {cursors[L]...};
  std::uint64_t h[] = {hashes[L]...};
  for (std::size_t i = 0; i < count; ++i) {
    ((h[L] = FnvStep(h[L], p[L][i])), ...);
  }
  ((cursors[L] = p[L] + count, hashes[L] = h[L]), ...);
}

/// FoldLockstep over the first `live` (1..N) lanes.
template <std::size_t N>
void FoldLive(std::size_t live, const std::byte** cursors,
              std::uint64_t* hashes, std::size_t count) {
  if constexpr (N > 1) {
    if (live < N) return FoldLive<N - 1>(live, cursors, hashes, count);
  }
  FoldLockstep(Lanes<N>(), cursors, hashes, count);
}

/// Continues chain i from hashes[i] over spans[i], for every i, in
/// lockstep.  Lanes go longest first, so the shortest live lane is
/// always the last: each phase runs the live lanes up to its end, then
/// drops it.
template <std::size_t N>
void FoldSpans(const std::array<std::span<const std::byte>, N>& spans,
               std::array<std::uint64_t, N>& hashes) {
  std::array<std::size_t, N> order;
  for (std::size_t i = 0; i < N; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&spans](std::size_t a, std::size_t b) {
                     return spans[a].size() > spans[b].size();
                   });
  const std::byte* cursors[N];
  std::uint64_t lanes[N];
  for (std::size_t l = 0; l < N; ++l) {
    cursors[l] = spans[order[l]].data();
    lanes[l] = hashes[order[l]];
  }
  std::size_t done = 0;
  for (std::size_t live = N; live > 0; --live) {
    const std::size_t end = spans[order[live - 1]].size();
    FoldLive<N>(live, cursors, lanes, end - done);
    done = end;
  }
  for (std::size_t l = 0; l < N; ++l) hashes[order[l]] = lanes[l];
}

/// The running state of the verifying pass over the entries.  Every
/// entry check is folded into the sign of `negative`, so a passing entry
/// costs a few ORs:
///  * key order: key − floor, with floor = previous key + 1 (0 before
///    the first);
///  * /24 base: −(key & 0xFF);
///  * block range: m − (u32)(block + 1), where kNoBlock wraps to 0;
///  * class range: 5 − (u8)(token + 1), where kNoClass wraps to 0.
struct EntryScan {
  std::uint64_t keys = kFnvOffset;
  std::uint64_t blocks = kFnvOffset;
  std::uint64_t classes = kFnvOffset;
  std::uint64_t blocktab = kFnvOffset;
  std::uint64_t hops = kFnvOffset;
  std::int64_t negative = 0;
  std::int64_t floor = 0;
};

/// What the verifying pass reads and writes: the payload sections, the
/// block count the entries are checked against, and the tree slots.
struct PayloadView {
  const std::byte* keys;
  const std::byte* blocks;
  const std::byte* classes;
  const std::byte* blocktab;
  const std::byte* hops;
  std::int64_t block_count;
  std::uint32_t* slots;  ///< tree slots to fill, or null
  EytzingerShape shape;
};

/// Entries [begin, end) of the verifying pass, with the blocktab and
/// hops chains riding along when kBlocktab / kHops.
template <bool kBlocktab, bool kHops, bool kIndex>
void ScanEntries(const PayloadView& view, std::size_t begin, std::size_t end,
                 EntryScan& scan) {
  EntryScan s = scan;  // locals, so the chains stay in registers
  for (std::size_t i = begin; i < end; ++i) {
    const std::byte* key_bytes = view.keys + i * 4;
    const std::byte* block_bytes = view.blocks + i * 4;
    const std::byte token = view.classes[i];
    s.keys = FnvStep4(s.keys, key_bytes);
    s.blocks = FnvStep4(s.blocks, block_bytes);
    s.classes = FnvStep(s.classes, token);
    if constexpr (kBlocktab) {
      s.blocktab = FnvStep4(s.blocktab, view.blocktab + i * 4);
    }
    if constexpr (kHops) s.hops = FnvStep4(s.hops, view.hops + i * 4);
    const std::uint32_t key = ReadU32(key_bytes);
    const std::uint32_t block = ReadU32(block_bytes);
    s.negative |= (static_cast<std::int64_t>(key) - s.floor) |
                  -static_cast<std::int64_t>(key & 0xFF) |
                  (view.block_count - static_cast<std::uint32_t>(block + 1)) |
                  (5 - static_cast<std::uint8_t>(
                           std::to_integer<std::uint8_t>(token) + 1));
    s.floor = static_cast<std::int64_t>(key) + 1;
    if constexpr (kIndex) view.slots[view.shape.SlotOf(i)] = key;
  }
  scan = s;
}

/// ScanEntries over [0, n) in up to three phases: both tails riding,
/// the longer one riding, none.
template <bool kIndex>
void ScanAllEntries(const PayloadView& view, std::size_t n,
                    std::size_t blocktab_words, std::size_t hop_words,
                    EntryScan& scan) {
  const std::size_t both = std::min(blocktab_words, hop_words);
  const std::size_t one = std::max(blocktab_words, hop_words);
  ScanEntries<true, true, kIndex>(view, 0, both, scan);
  if (blocktab_words > hop_words) {
    ScanEntries<true, false, kIndex>(view, both, one, scan);
  } else {
    ScanEntries<false, true, kIndex>(view, both, one, scan);
  }
  ScanEntries<false, false, kIndex>(view, one, n, scan);
}

/// What the verifying pass over a payload found.
struct PayloadScan {
  std::array<std::uint64_t, kSnapshotSections> checksums;
  bool bad;  ///< some entry or hop-run invariant fails
};

/// The verifying pass of a load: the five section checksums and, in the
/// same step per entry, the entry invariants (key order, /24 base, block
/// range, class range) and, when `index` is non-null, the key written to
/// its tree slot.  Each entry folds its 4 key bytes, 4 block bytes and 1
/// class byte into their own chains; the blocktab and hops chains ride
/// along a word per entry while they last, and what is left of them runs
/// through the byte lockstep after the last entry.  The chains bound the
/// pass, so the checks and the tree writes run in their shadow.  The hop
/// runs are checked last.
PayloadScan ScanPayload(const std::byte* base, const SectionLayout& layout,
                        std::uint32_t block_count, std::uint64_t hop_count,
                        EytzingerIndex* index) {
  const std::size_t n = static_cast<std::size_t>(layout.sizes[2]);
  const std::size_t blocktab_bytes = static_cast<std::size_t>(layout.sizes[3]);
  const std::size_t hop_bytes = static_cast<std::size_t>(layout.sizes[4]);
  const std::size_t blocktab_words = std::min(n, blocktab_bytes / 4);
  const std::size_t hop_words = std::min(n, hop_bytes / 4);
  PayloadView view{base + layout.offsets[0],
                   base + layout.offsets[1],
                   base + layout.offsets[2],
                   base + layout.offsets[3],
                   base + layout.offsets[4],
                   block_count,
                   index != nullptr ? index->Reshape(n) : nullptr,
                   EytzingerShape(n)};
  EntryScan scan;
  if (index != nullptr) {
    ScanAllEntries<true>(view, n, blocktab_words, hop_words, scan);
  } else {
    ScanAllEntries<false>(view, n, blocktab_words, hop_words, scan);
  }
  std::array<std::uint64_t, 2> tails = {scan.blocktab, scan.hops};
  FoldSpans<2>({std::span<const std::byte>(view.blocktab + blocktab_words * 4,
                                           blocktab_bytes - blocktab_words * 4),
                std::span<const std::byte>(view.hops + hop_words * 4,
                                           hop_bytes - hop_words * 4)},
               tails);
  bool bad = scan.negative < 0;
  for (std::size_t b = 0; b < block_count; ++b) {
    const std::uint64_t offset = ReadU32(view.blocktab + b * 12 + 4);
    const std::uint64_t count = ReadU32(view.blocktab + b * 12 + 8);
    bad |= offset + count > hop_count;
  }
  return {{scan.keys, scan.blocks, scan.classes, tails[0], tails[1]}, bad};
}

}  // namespace

std::uint64_t Fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = kFnvOffset;
  for (std::byte b : bytes) hash = FnvStep(hash, b);
  return hash;
}

std::array<std::uint64_t, kSnapshotSections> SectionChecksums(
    const std::array<std::span<const std::byte>, kSnapshotSections>&
        sections) {
  std::array<std::uint64_t, kSnapshotSections> checksums;
  checksums.fill(kFnvOffset);
  FoldSpans(sections, checksums);
  return checksums;
}

std::vector<ClassifiedPrefix> ClassifiedFrom(
    std::span<const core::ResultRecord> records) {
  std::vector<ClassifiedPrefix> out;
  out.reserve(records.size());
  for (const core::ResultRecord& r : records) {
    out.push_back({r.prefix, static_cast<std::uint8_t>(r.classification)});
  }
  return out;
}

std::vector<ClassifiedPrefix> ClassifiedFrom(
    std::span<const core::BlockResult> results) {
  std::vector<ClassifiedPrefix> out;
  out.reserve(results.size());
  for (const core::BlockResult& r : results) {
    out.push_back({r.prefix, static_cast<std::uint8_t>(r.classification)});
  }
  return out;
}

namespace {

/// How many blocks ahead the loops over blocks prefetch a block's member
/// or hop array.  Each array is its own heap allocation, and blocks in
/// canonical order do not sit in allocation order.
constexpr std::size_t kBlockPrefetch = 16;

template <class Field>
void PrefetchAhead(std::span<const cluster::AggregateBlock> blocks,
                   std::size_t b, Field field) {
  if (b + kBlockPrefetch < blocks.size()) {
    __builtin_prefetch((blocks[b + kBlockPrefetch].*field).data());
  }
}

/// Where the resolver writes: a snapshot's three entry sections.
struct EntrySections {
  std::byte* keys;
  std::byte* blocks;
  std::byte* classes;
};

/// The distinct entry keys of a block map, ranked.  Every member and
/// classified /24 sets its bit in a bitmap of the 2^24 /24s, and a
/// summary keeps one bit per non-empty bitmap word, so ranking visits
/// only the words that hold keys.  The bitmap is never cleared: a word is
/// written whole when the first key lands in it and its summary bit goes
/// up, and no word is read unless its summary bit is up.  A compile thus
/// touches only the words its keys land in; clearing all 2 MiB would
/// cost a map of a few thousand /24s spread over the space more than
/// ranking it.  Ranking stores, densely, per non-empty word, the count
/// of /24 keys in the words before it, and per summary group where its
/// words' counts start.  A key's position is its word's count (found by
/// the set summary bits below the word) plus the set bits below it in
/// the word; for a map of a few thousand keys the dense counts stay in
/// cache where a count per bitmap word would not.
///
/// A key that is not a /24 base (the base of a member prefix longer than
/// /24, which the loader refuses) goes to a small sorted side list that
/// emission merges in, so every input resolves as the map oracle does.
class KeyRank {
 public:
  KeyRank(std::span<const cluster::AggregateBlock> blocks,
          std::span<const ClassifiedPrefix> classified)
      : bits_(std::make_unique_for_overwrite<std::uint64_t[]>(kWords)),
        summary_(kWords / 64),
        first_(kWords / 64) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      PrefetchAhead(blocks, b, &cluster::AggregateBlock::member_24s);
      for (const netsim::Prefix& member : blocks[b].member_24s) {
        Mark(member.base().value());
      }
    }
    for (const ClassifiedPrefix& c : classified) Mark(c.prefix.base().value());
    std::sort(odd_.begin(), odd_.end());
    odd_.erase(std::unique(odd_.begin(), odd_.end()), odd_.end());
    size_ += odd_.size();
  }

  /// Distinct keys: the entry count.
  std::size_t size() const { return size_; }

  /// Ranks the keys and writes them to `out` in ascending order, each
  /// with kNoBlock and kNoClass.  PositionOf works from then on.
  void Emit(const EntrySections& out) {
    std::size_t non_empty = 0;
    for (const std::uint64_t group : summary_) {
      non_empty += static_cast<std::size_t>(common::Popcount(group));
    }
    rank_.reserve(non_empty);
    odd_position_.resize(odd_.size());
    std::size_t i = 0;
    std::size_t odd = 0;
    auto put = [&](std::uint32_t key) {
      wire::StoreU32(out.keys + i * 4, key);
      wire::StoreU32(out.blocks + i * 4, kNoBlock);
      out.classes[i++] = std::byte{kNoClass};
    };
    auto put_odd_below = [&](std::uint64_t end) {
      for (; odd < odd_.size() && odd_[odd] < end; ++odd) {
        odd_position_[odd] = i;
        put(odd_[odd]);
      }
    };
    for (std::size_t group = 0; group < summary_.size(); ++group) {
      first_[group] = static_cast<std::uint32_t>(rank_.size());
      for (std::uint64_t words = summary_[group]; words != 0;
           words &= words - 1) {
        const auto w = static_cast<std::uint32_t>(
            group * 64 + static_cast<std::size_t>(std::countr_zero(words)));
        rank_.push_back(static_cast<std::uint32_t>(i - odd));
        for (std::uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
          const std::uint32_t key =
              (w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)))
              << 8;
          put_odd_below(key);
          put(key);
        }
      }
    }
    put_odd_below(std::uint64_t{1} << 32);
  }

  /// The position of `key`, one of the marked keys, in ascending order.
  std::size_t PositionOf(std::uint32_t key) const {
    if ((key & 0xFF) != 0) [[unlikely]] {
      return odd_position_[OddBelow(key)];
    }
    const std::uint32_t w = key >> 14;
    const std::uint32_t group = w >> 6;
    const std::size_t slot =
        first_[group] + common::Popcount(summary_[group] & Below(w & 63));
    const std::size_t rank =
        rank_[slot] + common::Popcount(bits_[w] & Below((key >> 8) & 63));
    return odd_.empty() ? rank : rank + OddBelow(key);
  }

 private:
  static constexpr std::size_t kWords = (std::size_t{1} << 24) / 64;

  /// The bits below bit `i` of a word.
  static std::uint64_t Below(std::uint32_t i) {
    return (std::uint64_t{1} << i) - 1;
  }

  void Mark(std::uint32_t key) {
    if ((key & 0xFF) != 0) [[unlikely]] {
      odd_.push_back(key);
      return;
    }
    const std::uint32_t w = key >> 14;
    const std::uint64_t bit = std::uint64_t{1} << ((key >> 8) & 63);
    std::uint64_t& group = summary_[w >> 6];
    const std::uint64_t word = std::uint64_t{1} << (w & 63);
    const std::uint64_t was = (group & word) != 0 ? bits_[w] : 0;
    bits_[w] = was | bit;
    group |= word;
    size_ += (was & bit) == 0 ? 1 : 0;
  }

  /// Side-list keys below `key`.
  std::size_t OddBelow(std::uint32_t key) const {
    return static_cast<std::size_t>(
        std::lower_bound(odd_.begin(), odd_.end(), key) - odd_.begin());
  }

  std::unique_ptr<std::uint64_t[]> bits_;  ///< valid where summary_ says
  std::vector<std::uint64_t> summary_;
  /// Per summary group, the index in rank_ of its first non-empty word.
  std::vector<std::uint32_t> first_;
  /// Per non-empty word, ascending: the /24 keys in the words before it.
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> odd_;
  std::vector<std::size_t> odd_position_;  ///< entry index of each odd_ key
  std::size_t size_ = 0;
};

/// Resolves the entries of `blocks` + `classified` into `out`: every key
/// in order, with kNoBlock and kNoClass; then every member offers its
/// block id, blocks in index order, and every record its token, in input
/// order.  An entry keeps the first block id and the first token that is
/// not kNoClass it is offered, which is the documented rule.
void ResolveEntries(KeyRank& rank,
                    std::span<const cluster::AggregateBlock> blocks,
                    std::span<const ClassifiedPrefix> classified,
                    const EntrySections& out) {
  rank.Emit(out);
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    PrefetchAhead(blocks, b, &cluster::AggregateBlock::member_24s);
    for (const netsim::Prefix& member : blocks[b].member_24s) {
      std::byte* slot =
          out.blocks + rank.PositionOf(member.base().value()) * 4;
      if (wire::ReadU32(slot) == kNoBlock) wire::StoreU32(slot, b);
    }
  }
  for (const ClassifiedPrefix& c : classified) {
    std::byte& slot = out.classes[rank.PositionOf(c.prefix.base().value())];
    if (slot == std::byte{kNoClass}) slot = std::byte{c.class_token};
  }
}

/// A snapshot buffer for n entries, m blocks and h hops: zeroed, each
/// section at its offset.  The caller fills the sections; Seal writes
/// the header and the section checksums.  CompileSnapshotV2 writes
/// every snapshot the program makes through here.
class SnapshotWriter {
 public:
  SnapshotWriter(std::size_t n, std::size_t m, std::size_t h)
      : layout_(LayoutFor(n, m, h)),
        out_(static_cast<std::size_t>(layout_.file_bytes)) {}

  std::byte* section(std::size_t i) {
    return out_.data() + layout_.offsets[i];
  }
  EntrySections entries() { return {section(0), section(1), section(2)}; }

  std::vector<std::byte> Seal(std::uint64_t epoch) && {
    std::byte* header = out_.data();
    std::memcpy(header, kSnapshotMagic, 4);
    wire::StoreU32(header + 4, kSnapshotVersion);
    wire::StoreU32(header + 8, kSnapshotHeaderBytes);
    // n, m and h, from the classes, blocktab and hops section sizes.
    const std::uint64_t* sizes = layout_.sizes;
    wire::StoreU32(header + 12, static_cast<std::uint32_t>(sizes[2]));
    wire::StoreU32(header + 16, static_cast<std::uint32_t>(sizes[3] / 12));
    wire::StoreU32(header + 20, static_cast<std::uint32_t>(sizes[4] / 4));
    wire::StoreU64(header + 24, epoch);
    wire::StoreU64(header + 32, layout_.file_bytes);
    const std::array<std::uint64_t, kSnapshotSections> checksums =
        SectionChecksums(layout_.Sections(out_.data()));
    for (std::size_t i = 0; i < kSnapshotSections; ++i) {
      wire::StoreU64(header + 40 + i * 8, layout_.offsets[i]);
      wire::StoreU64(header + 80 + i * 8, checksums[i]);
    }
    wire::StoreU64(header + 120, 0);  // reserved
    return std::move(out_);
  }

 private:
  SectionLayout layout_;
  std::vector<std::byte> out_;
};

std::size_t HopTotal(std::span<const cluster::AggregateBlock> blocks) {
  std::size_t total = 0;
  for (const cluster::AggregateBlock& block : blocks) {
    total += block.last_hops.size();
  }
  return total;
}

/// Writes the blocktab rows and the hop pool of `blocks` at `row` and
/// `hop_out`, which have room for them.
void WriteBlockTable(std::span<const cluster::AggregateBlock> blocks,
                     std::byte* row, std::byte* hop_out) {
  std::uint32_t hop_offset = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    PrefetchAhead(blocks, b, &cluster::AggregateBlock::last_hops);
    const cluster::AggregateBlock& block = blocks[b];
    const auto hop_count = static_cast<std::uint32_t>(block.last_hops.size());
    wire::StoreU32(row, static_cast<std::uint32_t>(block.member_24s.size()));
    wire::StoreU32(row + 4, hop_offset);
    wire::StoreU32(row + 8, hop_count);
    row += 12;
    for (const netsim::Ipv4Address& hop : block.last_hops) {
      wire::StoreU32(hop_out, hop.value());
      hop_out += 4;
    }
    hop_offset += hop_count;
  }
}

}  // namespace

std::vector<std::byte> CompileSnapshotV2(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified, std::uint64_t epoch) {
  KeyRank rank(blocks, classified);
  SnapshotWriter writer(rank.size(), blocks.size(), HopTotal(blocks));
  ResolveEntries(rank, blocks, classified, writer.entries());
  WriteBlockTable(blocks, writer.section(3), writer.section(4));
  return std::move(writer).Seal(epoch);
}

bool WriteSnapshotFile(const std::string& path,
                       std::span<const std::byte> bytes, std::string* error) {
  // The temporary lives next to the target so the rename stays on one
  // filesystem (and is therefore atomic); the pid keeps two processes
  // exporting to the same path from sharing a temporary.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return LoadFail(error, "cannot create " + temp);
  const std::byte* data = bytes.data();
  std::size_t left = bytes.size();
  bool ok = true;
  while (ok && left > 0) {
    const ssize_t wrote = ::write(fd, data, left);
    if (wrote < 0 && errno == EINTR) continue;
    ok = wrote > 0;
    if (ok) {
      data += wrote;
      left -= static_cast<std::size_t>(wrote);
    }
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (ok && ::rename(temp.c_str(), path.c_str()) == 0) return true;
  ::unlink(temp.c_str());
  return LoadFail(error, "cannot write " + path);
}

// ---------------------------------------------------------------------------
// MmapSource

std::shared_ptr<const MmapSource> MmapSource::Map(const std::string& path,
                                                  std::string* error,
                                                  PrefaultMode prefault) {
  (void)prefault;  // unused on platforms without mmap
  auto source = std::shared_ptr<MmapSource>(new MmapSource());
#if HOBBIT_HAS_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    if (error != nullptr) *error = "cannot stat " + path;
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    int flags = MAP_PRIVATE;
#if defined(MAP_POPULATE)
    // Synchronous prefault: every page is resident when mmap returns,
    // so no query ever takes a major fault.
    if (prefault == PrefaultMode::kPopulate) flags |= MAP_POPULATE;
#endif
    void* data = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    if (data != MAP_FAILED) {
      source->data_ = data;
      source->size_ = size;
      source->mapped_ = true;
#if defined(POSIX_MADV_WILLNEED)
      // Async readahead (also the fallback when MAP_POPULATE does not
      // exist on this platform): advisory, failures ignored.
      bool want_readahead = prefault == PrefaultMode::kWillNeed;
#if !defined(MAP_POPULATE)
      want_readahead |= prefault == PrefaultMode::kPopulate;
#endif
      if (want_readahead) {
        (void)::posix_madvise(data, size, POSIX_MADV_WILLNEED);
      }
#endif
    }
  }
  ::close(fd);
  if (source->mapped_ || size == 0) return source;
  // mmap failed (unusual filesystem, resource limit): fall through to the
  // owned-copy fallback below so the caller still gets the bytes.
#endif
  if (!ReadWholeFile(path, &source->fallback_)) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  source->data_ = source->fallback_.data();
  source->size_ = source->fallback_.size();
  source->mapped_ = false;
  return source;
}

MmapSource::~MmapSource() {
#if HOBBIT_HAS_MMAP
  if (mapped_ && data_ != nullptr) ::munmap(data_, size_);
#endif
}

// ---------------------------------------------------------------------------
// Snapshot

void Snapshot::Rebase() {
  if (map_ != nullptr) {
    std::span<const std::byte> bytes = map_->bytes();
    base_ = bytes.data();
    size_ = bytes.size();
  } else {
    base_ = buffer_.data();
    size_ = buffer_.size();
  }
}

Snapshot::Snapshot(const Snapshot& other)
    : buffer_(other.buffer_),
      map_(other.map_),
      fully_verified_(other.fully_verified_),
      entry_count_(other.entry_count_),
      block_count_(other.block_count_),
      hop_count_(other.hop_count_),
      epoch_(other.epoch_),
      checksum_(other.checksum_),
      keys_offset_(other.keys_offset_),
      entry_blocks_offset_(other.entry_blocks_offset_),
      classes_offset_(other.classes_offset_),
      blocktab_offset_(other.blocktab_offset_),
      hops_offset_(other.hops_offset_) {
  Rebase();
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  if (this != &other) {
    Snapshot copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : buffer_(std::move(other.buffer_)),
      map_(std::move(other.map_)),
      fully_verified_(other.fully_verified_),
      entry_count_(other.entry_count_),
      block_count_(other.block_count_),
      hop_count_(other.hop_count_),
      epoch_(other.epoch_),
      checksum_(other.checksum_),
      keys_offset_(other.keys_offset_),
      entry_blocks_offset_(other.entry_blocks_offset_),
      classes_offset_(other.classes_offset_),
      blocktab_offset_(other.blocktab_offset_),
      hops_offset_(other.hops_offset_) {
  Rebase();
  other.base_ = nullptr;
  other.size_ = 0;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    buffer_ = std::move(other.buffer_);
    map_ = std::move(other.map_);
    fully_verified_ = other.fully_verified_;
    entry_count_ = other.entry_count_;
    block_count_ = other.block_count_;
    hop_count_ = other.hop_count_;
    epoch_ = other.epoch_;
    checksum_ = other.checksum_;
    keys_offset_ = other.keys_offset_;
    entry_blocks_offset_ = other.entry_blocks_offset_;
    classes_offset_ = other.classes_offset_;
    blocktab_offset_ = other.blocktab_offset_;
    hops_offset_ = other.hops_offset_;
    Rebase();
    other.base_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

std::vector<netsim::Ipv4Address> Snapshot::BlockLastHops(
    std::uint32_t b) const {
  std::uint32_t offset = LoadU32(blocktab_offset_ + std::size_t{b} * 12 + 4);
  std::uint32_t count = BlockHopCount(b);
  std::vector<netsim::Ipv4Address> hops;
  hops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    hops.emplace_back(LoadU32(hops_offset_ + (offset + std::size_t{i}) * 4));
  }
  return hops;
}

bool Snapshot::ReportEntryFailure(std::string* error) const {
  const std::size_t n = entry_count_;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (EntryKey(i) >= EntryKey(i + 1)) {
      return LoadFail(error, "entry keys not strictly ascending at index " +
                                 std::to_string(i + 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if ((EntryKey(i) & 0xFF) != 0) {
      return LoadFail(error,
                      "entry key is not a /24 base at index " +
                          std::to_string(i));
    }
    std::uint32_t block = EntryBlock(i);
    if (block != kNoBlock && block >= block_count_) {
      return LoadFail(error,
                      "entry block id out of range at index " +
                          std::to_string(i));
    }
    std::uint8_t token = EntryClass(i);
    if (token != kNoClass && token > 4) {
      return LoadFail(error, "entry classification out of range at index " +
                                 std::to_string(i));
    }
  }
  for (std::uint32_t b = 0; b < block_count_; ++b) {
    std::uint64_t offset = LoadU32(blocktab_offset_ + std::size_t{b} * 12 + 4);
    std::uint64_t count = BlockHopCount(b);
    if (offset + count > hop_count_) {
      return LoadFail(error, "block " + std::to_string(b) +
                                 " hop run exceeds the hop pool");
    }
  }
  return true;
}

bool Snapshot::Verify(std::string* error, EytzingerIndex* index) const {
  const SectionLayout layout = LayoutFor(entry_count_, block_count_, hop_count_);
  // Padding between sections must be zero: the layout is canonical, so
  // two compiles of the same state are byte-identical files.
  for (int i = 0; i < 5; ++i) {
    const std::size_t pad_begin =
        i == 0 ? kSnapshotHeaderBytes
               : static_cast<std::size_t>(layout.offsets[i - 1] +
                                          layout.sizes[i - 1]);
    const std::size_t pad_end = static_cast<std::size_t>(layout.offsets[i]);
    for (std::size_t p = pad_begin; p < pad_end; ++p) {
      if (base_[p] != std::byte{0}) {
        return LoadFail(error, "nonzero inter-section padding before " +
                                   std::string(kSectionNames[i]));
      }
    }
  }
  // Only a failing buffer pays for the rescan that names its first
  // violation, one property at a time, in the same words as always.
  const PayloadScan scan =
      ScanPayload(base_, layout, static_cast<std::uint32_t>(block_count_),
                  hop_count_, index);
  for (std::size_t i = 0; i < kSnapshotSections; ++i) {
    if (scan.checksums[i] != ReadU64(base_ + 80 + i * 8)) {
      return LoadFail(error, std::string("section checksum mismatch (") +
                                 kSectionNames[i] + ")");
    }
  }
  return !scan.bad || ReportEntryFailure(error);
}

bool Snapshot::Validate(const SnapshotLoadOptions& options,
                        std::string* error, EytzingerIndex* index) {
  if (size_ < kSnapshotHeaderBytes) {
    return LoadFail(error, "truncated header: " + std::to_string(size_) +
                               " bytes");
  }
  if (std::memcmp(base_, kSnapshotMagic, 4) != 0) {
    return LoadFail(error, "bad magic (not a HobbitSnapshot file)");
  }
  const std::uint32_t version = ReadU32(base_ + 4);
  if (version != kSnapshotVersion) {
    return LoadFail(error, "unsupported version " + std::to_string(version) +
                               " (expected " +
                               std::to_string(kSnapshotVersion) +
                               "; re-export the snapshot)");
  }
  if (ReadU32(base_ + 8) != kSnapshotHeaderBytes) {
    return LoadFail(error, "bad header size field");
  }
  std::uint64_t n = ReadU32(base_ + 12);
  std::uint64_t m = ReadU32(base_ + 16);
  std::uint64_t h = ReadU32(base_ + 20);
  epoch_ = ReadU64(base_ + 24);
  std::uint64_t file_bytes = ReadU64(base_ + 32);
  if (ReadU64(base_ + 120) != 0) {
    return LoadFail(error, "nonzero reserved field");
  }
  const SectionLayout layout = LayoutFor(n, m, h);
  for (int i = 0; i < 5; ++i) {
    if (ReadU64(base_ + 40 + i * 8) != layout.offsets[i]) {
      return LoadFail(error, std::string("bad section offset (") +
                                 kSectionNames[i] + ")");
    }
  }
  if (file_bytes != layout.file_bytes) {
    return LoadFail(error, "file size field disagrees with section counts");
  }
  if (size_ != file_bytes) {
    return LoadFail(error, size_ < file_bytes ? "truncated payload"
                                              : "trailing bytes after payload");
  }
  entry_count_ = n;
  block_count_ = m;
  hop_count_ = h;
  keys_offset_ = static_cast<std::size_t>(layout.offsets[0]);
  entry_blocks_offset_ = static_cast<std::size_t>(layout.offsets[1]);
  classes_offset_ = static_cast<std::size_t>(layout.offsets[2]);
  blocktab_offset_ = static_cast<std::size_t>(layout.offsets[3]);
  hops_offset_ = static_cast<std::size_t>(layout.offsets[4]);
  // The snapshot identity: FNV-1a folded over the five little-endian
  // section checksum fields.  Stable across mmap/owned loads and equal
  // for byte-identical files.
  checksum_ = Fnv1a64({base_ + 80, 40});

  if (!options.defer_verification) {
    if (!Verify(error, index)) return false;
    fully_verified_ = true;
  } else if (index != nullptr) {
    *index = EytzingerIndex::Build(*this);
  }
  return true;
}

std::vector<std::byte> Snapshot::TakeBuffer() && {
  std::vector<std::byte> buffer = std::move(buffer_);
  *this = Snapshot();
  return buffer;
}

std::optional<Snapshot> Snapshot::Adopt(std::vector<std::byte>* buffer,
                                        std::string* error,
                                        const SnapshotLoadOptions& options,
                                        EytzingerIndex* index) {
  Snapshot snapshot;
  snapshot.buffer_ = std::move(*buffer);
  snapshot.Rebase();
  if (snapshot.Validate(options, error, index)) return snapshot;
  *buffer = std::move(snapshot).TakeBuffer();
  return std::nullopt;
}

std::optional<Snapshot> Snapshot::FromBuffer(std::vector<std::byte> buffer,
                                             std::string* error,
                                             const SnapshotLoadOptions& options,
                                             EytzingerIndex* index) {
  return Adopt(&buffer, error, options, index);
}

std::optional<Snapshot> Snapshot::FromFile(const std::string& path,
                                           std::string* error,
                                           const SnapshotLoadOptions& options,
                                           std::vector<std::byte>* storage,
                                           EytzingerIndex* index) {
  if (options.use_mmap) {
    std::shared_ptr<const MmapSource> source =
        MmapSource::Map(path, error, options.prefault);
    if (source == nullptr) return std::nullopt;
    Snapshot snapshot;
    snapshot.map_ = std::move(source);
    snapshot.Rebase();
    if (!snapshot.Validate(options, error, index)) return std::nullopt;
    return snapshot;
  }
  std::vector<std::byte> fresh;
  std::vector<std::byte>* buffer = storage != nullptr ? storage : &fresh;
  if (!ReadWholeFile(path, buffer)) {
    LoadFail(error, "cannot open " + path);
    return std::nullopt;
  }
  return Adopt(buffer, error, options, index);
}

}  // namespace hobbit::serve
