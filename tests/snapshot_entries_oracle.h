// snapshot_entries_oracle.h — entry resolution through one std::map
// insert per record, the oracle for serve::CompileSnapshotV2's entry
// sections, plus the test-side row form those sections are compared in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "serve/snapshot.h"
#include "serve/wire.h"

namespace hobbit::test {

/// One resolved snapshot entry: a key with its owning block id (or
/// kNoBlock) and classification token (or kNoClass).  The row form of a
/// snapshot's three columnar entry sections.
struct SnapshotEntry {
  std::uint32_t key = 0;
  std::uint32_t block = serve::kNoBlock;
  std::uint8_t class_token = serve::kNoClass;
};

/// Sorted, deduplicated entries: the block is the lowest block index
/// whose member_24s holds the key (else kNoBlock), the class the first
/// classified token for the key that is not kNoClass (else kNoClass).
inline std::vector<SnapshotEntry> OracleSnapshotEntries(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const serve::ClassifiedPrefix> classified) {
  using serve::kNoBlock;
  using serve::kNoClass;
  // key -> (block id, class token); block membership wins over a
  // results-only record, classification survives either insertion order.
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint8_t>> entries;
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    for (const netsim::Prefix& member : blocks[b].member_24s) {
      entries.emplace(member.base().value(), std::make_pair(b, kNoClass));
    }
  }
  for (const serve::ClassifiedPrefix& c : classified) {
    auto [pos, inserted] = entries.emplace(
        c.prefix.base().value(), std::make_pair(kNoBlock, c.class_token));
    if (!inserted && pos->second.second == kNoClass) {
      pos->second.second = c.class_token;
    }
  }
  std::vector<SnapshotEntry> out;
  out.reserve(entries.size());
  for (const auto& [key, meta] : entries) {
    out.push_back({key, meta.first, meta.second});
  }
  return out;
}

/// The entries of a compiled snapshot buffer, decoded straight from its
/// header (n at offset 12, the keys, blocks and classes section offsets
/// at 40, 48 and 56) without the loader, so a buffer the loader refuses
/// -- one with keys that are not /24 bases -- decodes too.
inline std::vector<SnapshotEntry> CompiledEntries(
    std::span<const std::byte> bytes) {
  using serve::wire::ReadU32;
  using serve::wire::ReadU64;
  const std::byte* header = bytes.data();
  const std::size_t n = ReadU32(header + 12);
  const std::byte* keys = header + ReadU64(header + 40);
  const std::byte* blocks = header + ReadU64(header + 48);
  const std::byte* classes = header + ReadU64(header + 56);
  std::vector<SnapshotEntry> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = {ReadU32(keys + i * 4), ReadU32(blocks + i * 4),
              std::to_integer<std::uint8_t>(classes[i])};
  }
  return out;
}

/// Compiles the snapshot whose entries are `rows` (ascending /24 keys):
/// each row's key joins the member list of its block, when it has one,
/// and is classified with its token, kNoClass included.  `blocks` brings
/// the block table's last hops; its member lists are filled here.
inline std::vector<std::byte> CompileRows(
    std::span<const SnapshotEntry> rows,
    std::vector<cluster::AggregateBlock> blocks, std::uint64_t epoch) {
  std::vector<serve::ClassifiedPrefix> classified;
  classified.reserve(rows.size());
  for (const SnapshotEntry& row : rows) {
    const netsim::Prefix prefix =
        netsim::Prefix::Of(netsim::Ipv4Address(row.key), 24);
    if (row.block != serve::kNoBlock) {
      blocks[row.block].member_24s.push_back(prefix);
    }
    classified.push_back({prefix, row.class_token});
  }
  return serve::CompileSnapshotV2(blocks, classified, epoch);
}

}  // namespace hobbit::test
