// delta.h — snapshot patches: the wire form of a streaming publish.
//
// A streaming campaign (src/stream) republishes as blocks finish; a full
// HSNP recompile per publish would be O(world) work and bytes for what is
// usually an O(changed) update.  A patch carries only the *entry-level*
// difference against a specific base snapshot, plus a full replacement of
// the block table and hop pool (block ids are renumbered every publish —
// blocks re-sort by size — so the m*12+h*4 section is rewritten wholesale;
// it is small next to the n-entry sections).
//
// Layout (HobbitSnapshotPatch v1; every integer little-endian):
//
//   offset  size  field
//   0       4     magic "HSPT"
//   4       4     u32 version            (== 1)
//   8       4     u32 header_bytes      (== 64)
//   12      4     u32 upsert_count   u  (entries added or changed)
//   16      4     u32 remove_count   r  (base keys deleted)
//   20      4     u32 block_count    m' (replacement block table)
//   24      4     u32 hop_count      h' (replacement hop pool)
//   28      4     u32 reserved          (== 0)
//   32      8     u64 base_checksum     (identity checksum of the base
//                                        snapshot this patch applies to:
//                                        Snapshot::checksum(), the fold
//                                        of its five section checksums)
//   40      8     u64 new_epoch         (epoch of the patched snapshot)
//   48      8     u64 payload_bytes     (must equal the derived size)
//   56      8     u64 payload_checksum  (FNV-1a 64 over the payload)
//   64            payload:
//     upsert keys     u*4   u32 /24 bases, strictly ascending
//     upsert blocks   u*4   u32 owning block id, or kNoBlock
//     upsert classes  u*1   u8  Classification value, or kNoClass
//     pad             0..3  zero bytes realigning to 4
//     remove keys     r*4   u32 /24 bases, strictly ascending; must exist
//                           in the base and be disjoint from the upserts
//     blocktab        m'*12 as in the snapshot format
//     hops            h'*4  as in the snapshot format
//
// The applier is strict (same philosophy as Snapshot::FromBuffer): any
// violation — bad magic/version/size/checksum, wrong base, unsorted or
// overlapping key sections, removes that don't exist — rejects the whole
// patch, and the store keeps serving the current snapshot untouched.
//
// Contract: ApplyPatch(base, CompileDelta(base, S)) is byte-identical to
// CompileSnapshotV2(S) for any state S.  CompileDelta diffs the entries
// of the one resolver CompileSnapshotV2 writes through, ships the block
// sections AppendBlockTable writes as the full compile does, and the
// applier assembles through AssembleSnapshotV2, which lays out, fills
// the header and checksums through the full compile's writer.  So this
// holds structurally, and the differential gate in bench_stream and the
// verify_full_reference stream option re-check it at runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/snapshot.h"

namespace hobbit::serve {

inline constexpr char kPatchMagic[4] = {'H', 'S', 'P', 'T'};
inline constexpr std::uint32_t kPatchVersion = 1;
inline constexpr std::uint32_t kPatchHeaderBytes = 64;

/// What a CompileDelta call actually emitted, for telemetry.
struct DeltaStats {
  std::size_t upserts = 0;    ///< entries added or changed vs the base
  std::size_t removes = 0;    ///< base entries absent from the new state
  std::size_t unchanged = 0;  ///< base entries carried over untouched
};

/// Diffs the new state (blocks + classifications, as CompileSnapshotV2 takes
/// them) against `base` and compiles the patch that transforms base into
/// the new state at `new_epoch`.  Always emits the full replacement block
/// table; entries are diffed.  An empty diff is valid (the patch then only
/// bumps the epoch / renews the block table).
std::vector<std::byte> CompileDelta(
    const Snapshot& base, std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified, std::uint64_t new_epoch,
    DeltaStats* stats = nullptr);

/// Validates `patch` against `base` and, when everything checks out,
/// returns the patched snapshot buffer (ready for Snapshot::FromBuffer).
/// On any violation returns nullopt and, when `error` is non-null, a
/// message naming the first violated property; `base` is never modified.
std::optional<std::vector<std::byte>> ApplyPatch(
    const Snapshot& base, std::span<const std::byte> patch,
    std::string* error = nullptr);

}  // namespace hobbit::serve
