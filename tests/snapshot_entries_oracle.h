// snapshot_entries_oracle.h — entry resolution through one std::map
// insert per record, the oracle for serve::BuildSnapshotEntries.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "serve/snapshot.h"

namespace hobbit::test {

/// Sorted, deduplicated entries: the block is the lowest block index
/// whose member_24s holds the key (else kNoBlock), the class the first
/// classified token for the key that is not kNoClass (else kNoClass).
inline std::vector<serve::SnapshotEntry> OracleSnapshotEntries(
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
  std::vector<serve::SnapshotEntry> out;
  out.reserve(entries.size());
  for (const auto& [key, meta] : entries) {
    out.push_back({key, meta.first, meta.second});
  }
  return out;
}

}  // namespace hobbit::test
