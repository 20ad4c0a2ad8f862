#include "serve/delta.h"

#include <cstring>

#include "serve/wire.h"

namespace hobbit::serve {
namespace {

using wire::AppendU32;
using wire::AppendU64;
using wire::PadTo4;
using wire::ReadU32;
using wire::ReadU64;

std::uint64_t PatchPayloadBytesFor(std::uint64_t u, std::uint64_t r,
                                   std::uint64_t m, std::uint64_t h) {
  return u * 4 + u * 4 + u + PadTo4(u) + r * 4 + m * 12 + h * 4;
}

bool PatchFail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::vector<std::byte> CompileDelta(
    const Snapshot& base, std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified, std::uint64_t new_epoch,
    DeltaStats* stats) {
  const std::vector<SnapshotEntry> next =
      BuildSnapshotEntries(blocks, classified);

  // Linear merge over the two sorted key sequences: entries only in
  // `next` or with a different (block, class) are upserts, entries only
  // in the base are removes.
  std::vector<SnapshotEntry> upserts;
  std::vector<std::uint32_t> removes;
  std::size_t unchanged = 0;
  std::size_t bi = 0;  // base index
  const std::size_t bn = base.entry_count();
  for (const SnapshotEntry& e : next) {
    while (bi < bn && base.EntryKey(bi) < e.key) {
      removes.push_back(base.EntryKey(bi));
      ++bi;
    }
    if (bi < bn && base.EntryKey(bi) == e.key) {
      if (base.EntryBlock(bi) != e.block || base.EntryClass(bi) != e.class_token) {
        upserts.push_back(e);
      } else {
        ++unchanged;
      }
      ++bi;
    } else {
      upserts.push_back(e);
    }
  }
  for (; bi < bn; ++bi) removes.push_back(base.EntryKey(bi));
  if (stats != nullptr) {
    stats->upserts = upserts.size();
    stats->removes = removes.size();
    stats->unchanged = unchanged;
  }

  std::vector<std::byte> blocktab;
  std::vector<std::byte> hops;
  AppendBlockTable(blocks, &blocktab, &hops);

  std::vector<std::byte> payload;
  payload.reserve(PatchPayloadBytesFor(upserts.size(), removes.size(),
                                       blocktab.size() / 12, hops.size() / 4));
  for (const SnapshotEntry& e : upserts) AppendU32(payload, e.key);
  for (const SnapshotEntry& e : upserts) AppendU32(payload, e.block);
  for (const SnapshotEntry& e : upserts) {
    payload.push_back(static_cast<std::byte>(e.class_token));
  }
  payload.resize(payload.size() + PadTo4(upserts.size()), std::byte{0});
  for (std::uint32_t key : removes) AppendU32(payload, key);
  payload.insert(payload.end(), blocktab.begin(), blocktab.end());
  payload.insert(payload.end(), hops.begin(), hops.end());

  std::vector<std::byte> out;
  out.reserve(kPatchHeaderBytes + payload.size());
  for (char c : kPatchMagic) out.push_back(static_cast<std::byte>(c));
  AppendU32(out, kPatchVersion);
  AppendU32(out, kPatchHeaderBytes);
  AppendU32(out, static_cast<std::uint32_t>(upserts.size()));
  AppendU32(out, static_cast<std::uint32_t>(removes.size()));
  AppendU32(out, static_cast<std::uint32_t>(blocktab.size() / 12));
  AppendU32(out, static_cast<std::uint32_t>(hops.size() / 4));
  AppendU32(out, 0);  // reserved
  AppendU64(out, base.checksum());
  AppendU64(out, new_epoch);
  AppendU64(out, payload.size());
  AppendU64(out, Fnv1a64(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<std::vector<std::byte>> ApplyPatch(
    const Snapshot& base, std::span<const std::byte> patch,
    std::string* error) {
  if (patch.size() < kPatchHeaderBytes) {
    PatchFail(error, "truncated patch header: " +
                         std::to_string(patch.size()) + " bytes");
    return std::nullopt;
  }
  const std::byte* p = patch.data();
  if (std::memcmp(p, kPatchMagic, 4) != 0) {
    PatchFail(error, "bad magic (not a HobbitSnapshotPatch)");
    return std::nullopt;
  }
  std::uint32_t version = ReadU32(p + 4);
  if (version != kPatchVersion) {
    PatchFail(error, "unsupported patch version " + std::to_string(version));
    return std::nullopt;
  }
  if (ReadU32(p + 8) != kPatchHeaderBytes) {
    PatchFail(error, "bad patch header size field");
    return std::nullopt;
  }
  const std::uint64_t u = ReadU32(p + 12);
  const std::uint64_t r = ReadU32(p + 16);
  const std::uint64_t m = ReadU32(p + 20);
  const std::uint64_t h = ReadU32(p + 24);
  if (ReadU32(p + 28) != 0) {
    PatchFail(error, "nonzero reserved field");
    return std::nullopt;
  }
  const std::uint64_t base_checksum = ReadU64(p + 32);
  const std::uint64_t new_epoch = ReadU64(p + 40);
  const std::uint64_t payload_bytes = ReadU64(p + 48);
  const std::uint64_t payload_checksum = ReadU64(p + 56);
  if (payload_bytes != PatchPayloadBytesFor(u, r, m, h)) {
    PatchFail(error, "patch payload size disagrees with section counts");
    return std::nullopt;
  }
  if (patch.size() != kPatchHeaderBytes + payload_bytes) {
    PatchFail(error, patch.size() < kPatchHeaderBytes + payload_bytes
                         ? "truncated patch payload"
                         : "trailing bytes after patch payload");
    return std::nullopt;
  }
  std::span<const std::byte> payload(p + kPatchHeaderBytes, payload_bytes);
  if (Fnv1a64(payload) != payload_checksum) {
    PatchFail(error, "patch payload checksum mismatch");
    return std::nullopt;
  }
  if (base_checksum != base.checksum()) {
    PatchFail(error, "patch targets a different base snapshot");
    return std::nullopt;
  }

  // Section offsets within the payload.
  const std::byte* upsert_keys = payload.data();
  const std::byte* upsert_blocks = upsert_keys + u * 4;
  const std::byte* upsert_classes = upsert_blocks + u * 4;
  const std::byte* remove_keys = upsert_classes + u + PadTo4(u);
  const std::byte* blocktab = remove_keys + r * 4;
  const std::byte* hops = blocktab + m * 12;

  for (std::uint64_t i = 0; i + 1 < u; ++i) {
    if (ReadU32(upsert_keys + i * 4) >= ReadU32(upsert_keys + (i + 1) * 4)) {
      PatchFail(error, "upsert keys not strictly ascending at index " +
                           std::to_string(i + 1));
      return std::nullopt;
    }
  }
  for (std::uint64_t i = 0; i + 1 < r; ++i) {
    if (ReadU32(remove_keys + i * 4) >= ReadU32(remove_keys + (i + 1) * 4)) {
      PatchFail(error, "remove keys not strictly ascending at index " +
                           std::to_string(i + 1));
      return std::nullopt;
    }
  }

  // Three-way sorted merge: base entries, minus removes, overridden /
  // extended by upserts.  Every remove must name a live base key and no
  // key may be both removed and upserted.
  std::vector<SnapshotEntry> merged;
  merged.reserve(base.entry_count() + u);
  std::uint64_t ui = 0;  // upsert cursor
  std::uint64_t ri = 0;  // remove cursor
  const std::size_t bn = base.entry_count();
  for (std::size_t bi = 0; bi < bn; ++bi) {
    const std::uint32_t key = base.EntryKey(bi);
    // Upserts strictly below this base key are pure inserts.
    while (ui < u && ReadU32(upsert_keys + ui * 4) < key) {
      const std::uint32_t ukey = ReadU32(upsert_keys + ui * 4);
      if (ri < r && ReadU32(remove_keys + ri * 4) == ukey) {
        PatchFail(error, "key both removed and upserted");
        return std::nullopt;
      }
      merged.push_back({ukey, ReadU32(upsert_blocks + ui * 4),
                        std::to_integer<std::uint8_t>(upsert_classes[ui])});
      ++ui;
    }
    if (ri < r && ReadU32(remove_keys + ri * 4) < key) {
      PatchFail(error, "remove key not present in base snapshot");
      return std::nullopt;
    }
    if (ri < r && ReadU32(remove_keys + ri * 4) == key) {
      ++ri;
      if (ui < u && ReadU32(upsert_keys + ui * 4) == key) {
        PatchFail(error, "key both removed and upserted");
        return std::nullopt;
      }
      continue;
    }
    if (ui < u && ReadU32(upsert_keys + ui * 4) == key) {
      merged.push_back({key, ReadU32(upsert_blocks + ui * 4),
                        std::to_integer<std::uint8_t>(upsert_classes[ui])});
      ++ui;
      continue;
    }
    merged.push_back({key, base.EntryBlock(bi), base.EntryClass(bi)});
  }
  for (; ui < u; ++ui) {
    const std::uint32_t ukey = ReadU32(upsert_keys + ui * 4);
    if (ri < r && ReadU32(remove_keys + ri * 4) == ukey) {
      PatchFail(error, "key both removed and upserted");
      return std::nullopt;
    }
    merged.push_back({ukey, ReadU32(upsert_blocks + ui * 4),
                      std::to_integer<std::uint8_t>(upsert_classes[ui])});
  }
  if (ri < r) {
    PatchFail(error, "remove key not present in base snapshot");
    return std::nullopt;
  }

  return AssembleSnapshotV2(
      merged, std::span<const std::byte>(blocktab, m * 12),
      std::span<const std::byte>(hops, h * 4), new_epoch);
}

}  // namespace hobbit::serve
