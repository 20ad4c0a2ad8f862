#include "serve/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

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

/// Stable LSD radix sort of key << 32 | payload records by key, one key
/// byte per pass, all 32 key bits.  A pass whose byte is the same in
/// every record would move nothing and is skipped, so /24 keys (low byte
/// zero) pay three passes.  `scratch` holds at least records.size()
/// values.
void SortByKey(std::span<std::uint64_t> records, std::uint64_t* scratch) {
  const std::size_t n = records.size();
  if (n < 2) return;
  std::array<std::array<std::size_t, 256>, 4> counts{};
  for (const std::uint64_t r : records) {
    for (int d = 0; d < 4; ++d) ++counts[d][(r >> (32 + 8 * d)) & 0xFF];
  }
  std::uint64_t* from = records.data();
  std::uint64_t* to = scratch;
  for (int d = 0; d < 4; ++d) {
    const int shift = 32 + 8 * d;
    std::array<std::size_t, 256>& next = counts[d];
    if (next[(from[0] >> shift) & 0xFF] == n) continue;
    std::size_t start = 0;
    for (std::size_t& slot : next) start += std::exchange(slot, start);
    for (std::size_t k = 0; k < n; ++k) {
      to[next[(from[k] >> shift) & 0xFF]++] = from[k];
    }
    std::swap(from, to);
  }
  if (from != records.data()) std::copy(from, from + n, records.data());
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

std::vector<SnapshotEntry> BuildSnapshotEntries(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified) {
  // Each record tagged key << 32 | payload and stably sorted by key, so
  // a key's member run starts at its lowest block and its classified run
  // keeps input order for the first-token-not-kNoClass rule.
  std::size_t member_total = 0;
  for (const cluster::AggregateBlock& block : blocks) {
    member_total += block.member_24s.size();
  }
  std::vector<std::uint64_t> members;
  members.reserve(member_total);
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    for (const netsim::Prefix& member : blocks[b].member_24s) {
      members.push_back(std::uint64_t{member.base().value()} << 32 | b);
    }
  }
  std::vector<std::uint64_t> tokens;
  tokens.reserve(classified.size());
  for (const ClassifiedPrefix& c : classified) {
    tokens.push_back(std::uint64_t{c.prefix.base().value()} << 32 |
                     c.class_token);
  }
  {
    // Freed before the merge allocates its output.
    const auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(
        std::max(members.size(), tokens.size()));
    SortByKey(members, scratch.get());
    SortByKey(tokens, scratch.get());
  }

  // One merge over the two key-sorted runs; kEnd is past every key.
  constexpr std::uint64_t kEnd = std::uint64_t{1} << 32;
  const std::size_t nm = members.size();
  const std::size_t nt = tokens.size();
  std::vector<SnapshotEntry> out;
  out.reserve(nm + nt);  // an upper bound; pages past the end stay untouched
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < nm || j < nt) {
    const std::uint64_t member_key = i < nm ? members[i] >> 32 : kEnd;
    const std::uint64_t token_key = j < nt ? tokens[j] >> 32 : kEnd;
    const std::uint64_t key = std::min(member_key, token_key);
    SnapshotEntry entry{static_cast<std::uint32_t>(key), kNoBlock, kNoClass};
    if (member_key == key) {
      entry.block = static_cast<std::uint32_t>(members[i]);
      while (i < nm && members[i] >> 32 == key) ++i;
    }
    for (; j < nt && tokens[j] >> 32 == key; ++j) {
      if (entry.class_token == kNoClass) {
        entry.class_token = static_cast<std::uint8_t>(tokens[j]);
      }
    }
    out.push_back(entry);
  }
  return out;
}

void AppendBlockTable(std::span<const cluster::AggregateBlock> blocks,
                      std::vector<std::byte>* blocktab,
                      std::vector<std::byte>* hops) {
  std::size_t hop_total = 0;
  for (const cluster::AggregateBlock& block : blocks) {
    hop_total += block.last_hops.size();
  }
  const std::size_t tab_start = blocktab->size();
  const std::size_t hop_start = hops->size();
  blocktab->resize(tab_start + blocks.size() * 12);
  hops->resize(hop_start + hop_total * 4);
  std::byte* row = blocktab->data() + tab_start;
  std::byte* hop_out = hops->data() + hop_start;
  std::uint32_t hop_offset = 0;
  for (const cluster::AggregateBlock& block : blocks) {
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

std::vector<std::byte> AssembleSnapshotV2(std::span<const SnapshotEntry> entries,
                                          std::span<const std::byte> blocktab,
                                          std::span<const std::byte> hops,
                                          std::uint64_t epoch) {
  const std::size_t n = entries.size();
  const std::size_t m = blocktab.size() / 12;
  const std::size_t h = hops.size() / 4;
  const SectionLayout layout = LayoutFor(n, m, h);

  std::vector<std::byte> out(layout.file_bytes, std::byte{0});
  // Sections first, so the header can record their checksums.
  {
    std::byte* keys = out.data() + layout.offsets[0];
    std::byte* blocks = out.data() + layout.offsets[1];
    std::byte* classes = out.data() + layout.offsets[2];
    for (std::size_t i = 0; i < n; ++i) {
      const SnapshotEntry& e = entries[i];
      wire::StoreU32(keys + i * 4, e.key);
      wire::StoreU32(blocks + i * 4, e.block);
      classes[i] = static_cast<std::byte>(e.class_token);
    }
    std::copy(blocktab.begin(), blocktab.end(),
              out.begin() + static_cast<std::ptrdiff_t>(layout.offsets[3]));
    std::copy(hops.begin(), hops.end(),
              out.begin() + static_cast<std::ptrdiff_t>(layout.offsets[4]));
  }

  std::byte* header = out.data();
  std::memcpy(header, kSnapshotMagic, 4);
  wire::StoreU32(header + 4, kSnapshotVersion);
  wire::StoreU32(header + 8, kSnapshotHeaderBytes);
  wire::StoreU32(header + 12, static_cast<std::uint32_t>(n));
  wire::StoreU32(header + 16, static_cast<std::uint32_t>(m));
  wire::StoreU32(header + 20, static_cast<std::uint32_t>(h));
  wire::StoreU64(header + 24, epoch);
  wire::StoreU64(header + 32, layout.file_bytes);
  const std::array<std::uint64_t, kSnapshotSections> checksums =
      SectionChecksums(layout.Sections(out.data()));
  for (std::size_t i = 0; i < kSnapshotSections; ++i) {
    wire::StoreU64(header + 40 + i * 8, layout.offsets[i]);
    wire::StoreU64(header + 80 + i * 8, checksums[i]);
  }
  wire::StoreU64(header + 120, 0);  // reserved
  return out;
}

std::vector<std::byte> CompileSnapshotV2(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified, std::uint64_t epoch) {
  std::vector<SnapshotEntry> entries = BuildSnapshotEntries(blocks, classified);
  std::vector<std::byte> blocktab;
  std::vector<std::byte> hops;
  AppendBlockTable(blocks, &blocktab, &hops);
  return AssembleSnapshotV2(entries, blocktab, hops, epoch);
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
  // for byte-identical files, so delta base matching works unchanged.
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
