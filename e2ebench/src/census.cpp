#include "census.h"

#include <algorithm>
#include <fstream>

#include "hobbit/resultio.h"
#include "netsim/rng.h"
#include "serve/lookup.h"

namespace e2ebench {

using hobbit::cluster::AggregateBlock;
using hobbit::core::Classification;
using hobbit::netsim::Ipv4Address;
using hobbit::netsim::Prefix;
using hobbit::netsim::Rng;
using hobbit::serve::ClassifiedPrefix;

namespace {

// /24 index space the census draws from: 1.0.0.0 up to 224.0.0.0.
constexpr std::uint32_t kFirst24 = 0x010000;
constexpr std::uint32_t kEnd24 = 0xE00000;

Prefix Slash24(std::uint32_t index) {
  return Prefix::Of(Ipv4Address(index << 8), 24);
}

std::uint8_t Token(Classification c) { return static_cast<std::uint8_t>(c); }

/// The reply line for one lookup, formatted as the line protocol does.
std::string FormatReply(const hobbit::serve::Snapshot& snapshot,
                        std::uint32_t address, const std::string& shown) {
  const hobbit::serve::LookupResult result =
      hobbit::serve::LookupEngine(snapshot).Lookup(Ipv4Address(address));
  if (!result.found) return "MISS " + shown + "\n";
  auto class_name = [&]() -> std::string {
    if (result.class_token == hobbit::serve::kNoClass) return "-";
    return std::string(hobbit::core::ClassificationToken(
        static_cast<Classification>(result.class_token)));
  };
  std::string line = "HIT " + Prefix::Of(Ipv4Address(result.key), 24).ToString();
  if (result.block == hobbit::serve::kNoBlock) {
    return line + " block=- class=" + class_name() + " members=- hops=-\n";
  }
  return line + " block=" + std::to_string(result.block) +
         " class=" + class_name() +
         " members=" + std::to_string(snapshot.BlockMemberCount(result.block)) +
         " hops=" + std::to_string(snapshot.BlockHopCount(result.block)) + "\n";
}

}  // namespace

BlockMap SynthesizeCensus(std::size_t entries, std::uint64_t seed) {
  BlockMap map;
  map.classified.reserve(entries);
  Rng rng(seed);
  // Groups average ~3.8 entries and a gap of 12 free /24s, so 3.37 M
  // entries span ~14 M of the 14.6 M /24s available.
  std::uint32_t cursor = kFirst24;
  while (map.classified.size() < entries && cursor < kEnd24) {
    cursor += static_cast<std::uint32_t>(rng.NextBelow(25));
    const std::size_t left = entries - map.classified.size();
    if (rng.NextBool(0.2)) {
      static constexpr Classification kHeterogeneous[] = {
          Classification::kDifferentButHierarchical,
          Classification::kTooFewActive, Classification::kUnresponsiveLastHop};
      map.classified.push_back(
          {Slash24(cursor), Token(kHeterogeneous[rng.NextBelow(3)])});
      ++cursor;
      continue;
    }
    const std::size_t size =
        std::min<std::size_t>(left, 1 + rng.NextBelow(8));
    const bool same_hop = rng.NextBool(0.7);
    AggregateBlock block;
    for (std::size_t m = 0; m < size && cursor < kEnd24; ++m, ++cursor) {
      block.member_24s.push_back(Slash24(cursor));
      map.classified.push_back(
          {Slash24(cursor), Token(same_hop ? Classification::kSameLastHop
                                           : Classification::kNonHierarchical)});
    }
    const std::size_t hops = same_hop ? 1 : 2 + rng.NextBelow(3);
    for (std::size_t h = 0; h < hops; ++h) {
      block.last_hops.push_back(Ipv4Address(static_cast<std::uint32_t>(rng.Next())));
    }
    std::sort(block.last_hops.begin(), block.last_hops.end());
    block.last_hops.erase(
        std::unique(block.last_hops.begin(), block.last_hops.end()),
        block.last_hops.end());
    map.blocks.push_back(std::move(block));
  }
  return map;
}

BlockMap CampaignMap(const hobbit::core::PipelineResult& pipeline,
                     const std::vector<AggregateBlock>& blocks) {
  return BlockMap{blocks, hobbit::serve::ClassifiedFrom(pipeline.results)};
}

BlockMap NextEpoch(const BlockMap& base, double fraction, std::uint64_t seed) {
  BlockMap next = base;
  Rng rng(seed);
  const std::size_t target = static_cast<std::size_t>(
      fraction * static_cast<double>(base.classified.size()));
  const double per_block =
      next.blocks.empty()
          ? 0.0
          : std::min(1.0, static_cast<double>(target) /
                              static_cast<double>(next.blocks.size()));
  for (AggregateBlock& block : next.blocks) {
    if (!rng.NextBool(per_block)) continue;
    if (block.member_24s.size() >= 2 && rng.NextBool(0.5)) {
      block.member_24s.pop_back();
    } else {
      Ipv4Address hop(static_cast<std::uint32_t>(rng.Next()));
      if (!std::binary_search(block.last_hops.begin(), block.last_hops.end(),
                              hop)) {
        block.last_hops.insert(
            std::upper_bound(block.last_hops.begin(), block.last_hops.end(), hop),
            hop);
      }
    }
  }
  return next;
}

bool WriteSnapshot(const BlockMap& map, std::uint64_t epoch,
                   const std::string& path, std::string* error) {
  const std::vector<std::byte> bytes =
      hobbit::serve::CompileSnapshotV2(map.blocks, map.classified, epoch);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

QueryTape MakeQueryTape(const std::vector<const hobbit::serve::Snapshot*>& snapshots,
                        std::size_t count, std::uint64_t seed) {
  QueryTape tape;
  tape.addresses.reserve(count);
  tape.text.reserve(count);
  Rng rng(seed);
  const hobbit::serve::Snapshot& first = *snapshots.front();
  std::vector<hobbit::serve::LookupEngine> engines;
  for (const hobbit::serve::Snapshot* snapshot : snapshots) {
    engines.emplace_back(*snapshot);
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t address = 0;
    if (i % 10 == 9) {
      for (;;) {
        address = (kFirst24 + static_cast<std::uint32_t>(rng.NextBelow(kEnd24 - kFirst24))) << 8;
        bool held = false;
        for (const auto& engine : engines) {
          held = held || engine.Lookup(Ipv4Address(address)).found;
        }
        if (!held) break;
      }
    } else {
      address = first.EntryKey(rng.NextBelow(first.entry_count()));
    }
    address |= static_cast<std::uint32_t>(rng.NextBelow(256));
    tape.addresses.push_back(address);
    tape.text.push_back(Ipv4Address(address).ToString());
  }
  return tape;
}

ExpectedReplies::ExpectedReplies(const hobbit::serve::Snapshot& snapshot,
                                 const QueryTape& tape) {
  offsets_.reserve(tape.addresses.size() + 1);
  offsets_.push_back(0);
  for (std::size_t i = 0; i < tape.addresses.size(); ++i) {
    bytes_ += FormatReply(snapshot, tape.addresses[i], tape.text[i]);
    offsets_.push_back(bytes_.size());
  }
}

}  // namespace e2ebench
