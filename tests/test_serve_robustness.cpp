// Serving-layer robustness, in the test_parser_robustness.cpp mould:
// hostile bytes must never crash the loader *or* the wire protocol.
// Part one covers the snapshot loader (every corruption rejected with a
// message, text formats and the binary snapshot agree after a round
// trip); part two covers the connection framing layer that the reactor
// feeds raw socket bytes — exact rules first, then a seeded random
// byte-stream fuzzer.  The framing layer is transport-free by design
// (see src/serve/connection.h), so none of this needs a socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <sstream>

#include "cluster/blockio.h"
#include "hobbit/resultio.h"
#include "netsim/rng.h"
#include "serve/connection.h"
#include "serve/lookup.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "snapshot_entries_oracle.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using test::Pfx;

std::vector<std::byte> ValidBuffer() {
  cluster::AggregateBlock a;
  a.member_24s = {Pfx("20.0.1.0/24"), Pfx("20.0.9.0/24")};
  a.last_hops = {Addr("10.0.0.1"), Addr("10.0.0.2")};
  cluster::AggregateBlock b;
  b.member_24s = {Pfx("99.1.2.0/24")};
  b.last_hops = {Addr("10.0.0.9")};
  std::vector<ClassifiedPrefix> classified = {
      {Pfx("20.0.1.0/24"),
       static_cast<std::uint8_t>(core::Classification::kSameLastHop)}};
  return CompileSnapshotV2(std::vector<cluster::AggregateBlock>{a, b},
                           classified, 5);
}

void ExpectRejected(std::vector<std::byte> buffer) {
  std::string error;
  EXPECT_FALSE(Snapshot::FromBuffer(std::move(buffer), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(SnapshotRobustness, BadMagicIsRejected) {
  auto buffer = ValidBuffer();
  buffer[0] = std::byte{'X'};
  std::string error;
  EXPECT_FALSE(Snapshot::FromBuffer(buffer, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(SnapshotRobustness, BadVersionIsRejected) {
  // Version 2 is the only layout; the retired packed version 1 is
  // refused like any other, with a hint to re-export the file.
  for (std::uint8_t version : {0, 1, 3, 0xFF}) {
    auto buffer = ValidBuffer();
    buffer[4] = std::byte{version};
    std::string error;
    EXPECT_FALSE(Snapshot::FromBuffer(buffer, &error).has_value());
    EXPECT_NE(error.find("unsupported version " + std::to_string(version)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("re-export"), std::string::npos) << error;
  }
}

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, RandomBuffersNeverCrash) {
  netsim::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    std::size_t length = rng.NextBelow(400);
    std::vector<std::byte> buffer(length);
    for (std::byte& b : buffer) {
      b = static_cast<std::byte>(rng.NextBelow(256));
    }
    std::string error;
    if (!Snapshot::FromBuffer(std::move(buffer), &error).has_value()) {
      EXPECT_FALSE(error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Values(1, 2, 3, 4));

// Text archives and the compiled binary must agree: parse the text
// formats, compile, and compare every lookup against the text-side
// reference index.
TEST(SnapshotRobustness, TextToBinaryRoundTripEquivalence) {
  const std::string blocks_text =
      "HobbitBlocks v1\n"
      "B0 hops=10.0.0.1,10.0.0.2 members=20.0.1.0/24,20.0.9.0/24\n"
      "B1 hops=10.0.0.9 members=99.1.2.0/24\n";
  const std::string results_text =
      "HobbitResults v1\n"
      "20.0.1.0/24\tsame-last-hop\t57\t9\t83\t10.0.0.1,10.0.0.2\n"
      "20.0.9.0/24\tnon-hierarchical\t31\t8\t60\t10.0.0.1\n"
      "50.5.5.0/24\ttoo-few-active\t1\t0\t2\t-\n";
  std::istringstream blocks_in(blocks_text);
  auto blocks = cluster::ReadBlocks(blocks_in);
  ASSERT_TRUE(blocks.has_value());
  std::istringstream results_in(results_text);
  auto records = core::ReadResults(results_in);
  ASSERT_TRUE(records.has_value());

  auto buffer = CompileSnapshotV2(
      *blocks,
      ClassifiedFrom(std::span<const core::ResultRecord>(*records)), 1);
  std::string error;
  auto snapshot = Snapshot::FromBuffer(std::move(buffer), &error);
  ASSERT_TRUE(snapshot.has_value()) << error;
  LookupEngine engine(*snapshot);
  cluster::BlockIndex reference(*blocks);

  for (const auto& record : *records) {
    LookupResult got = engine.Lookup(record.prefix);
    ASSERT_TRUE(got.found) << record.prefix.ToString();
    EXPECT_EQ(got.class_token,
              static_cast<std::uint8_t>(record.classification));
    int want = reference.BlockOf(record.prefix);
    EXPECT_EQ(got.block,
              want < 0 ? kNoBlock : static_cast<std::uint32_t>(want));
  }
  // Block metadata survives: hop sets equal the text-side sets.
  for (std::uint32_t b = 0; b < blocks->size(); ++b) {
    EXPECT_EQ(snapshot->BlockLastHops(b), (*blocks)[b].last_hops);
    EXPECT_EQ(snapshot->BlockMemberCount(b), (*blocks)[b].member_24s.size());
  }
}

// ---------------------------------------------------------------------
// The aligned section-offset layout has structure to defend — five
// offset fields, five section checksums, and the rule that
// inter-section padding is zero: every corruption rejected with a
// message, no crash on any mutation.

std::uint64_t ReadHeaderU64(const std::vector<std::byte>& buffer,
                            std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(buffer[offset + i]) << (8 * i);
  }
  return value;
}

std::uint32_t ReadHeaderU32(const std::vector<std::byte>& buffer,
                            std::size_t offset) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(buffer[offset + i]) << (8 * i);
  }
  return value;
}

TEST(SnapshotV2Robustness, ValidBufferLoadsAndIsVersion2) {
  const auto buffer = ValidBuffer();
  EXPECT_EQ(ReadHeaderU32(buffer, 4), kSnapshotVersion);
  EXPECT_EQ(kSnapshotVersion, 2u);
  std::string error;
  auto snapshot = Snapshot::FromBuffer(buffer, &error);
  ASSERT_TRUE(snapshot.has_value()) << error;
  EXPECT_TRUE(snapshot->fully_verified());
}

TEST(SnapshotV2Robustness, TruncationAtEveryLengthIsRejected) {
  const auto valid = ValidBuffer();
  for (std::size_t length = 0; length < valid.size(); ++length) {
    ExpectRejected(
        std::vector<std::byte>(valid.begin(), valid.begin() + length));
  }
}

TEST(SnapshotV2Robustness, TrailingBytesAreRejected) {
  auto buffer = ValidBuffer();
  buffer.push_back(std::byte{0});
  ExpectRejected(std::move(buffer));
}

TEST(SnapshotV2Robustness, TamperedHeaderFieldsAreRejected) {
  // header_bytes, the three counts, file_bytes, every section offset,
  // and the reserved word.  (Epoch is producer data, not covered.)
  std::vector<std::size_t> offsets = {8, 12, 16, 20, 32, 120};
  for (int section = 0; section < 5; ++section) {
    offsets.push_back(40 + section * 8);
  }
  for (std::size_t offset : offsets) {
    auto buffer = ValidBuffer();
    buffer[offset] ^= std::byte{0x01};
    ExpectRejected(std::move(buffer));
  }
}

TEST(SnapshotV2Robustness, TamperedSectionChecksumsAreRejected) {
  for (int section = 0; section < 5; ++section) {
    auto buffer = ValidBuffer();
    buffer[80 + section * 8] ^= std::byte{0x01};
    ExpectRejected(std::move(buffer));
  }
}

TEST(SnapshotV2Robustness, PayloadCorruptionAtEveryByteIsRejected) {
  // Every post-header byte is covered by a section checksum or by the
  // zero-padding rule — flipping any single one must reject the load.
  const auto valid = ValidBuffer();
  for (std::size_t offset = kSnapshotHeaderBytes; offset < valid.size();
       ++offset) {
    auto buffer = valid;
    buffer[offset] ^= std::byte{0x20};
    ExpectRejected(std::move(buffer));
  }
}

TEST(SnapshotV2Robustness, NonzeroInterSectionPaddingIsRejected) {
  // Locate real padding from the header's own fields: the keys section
  // (a handful of entries) ends well before the 64-aligned blocks
  // section, so the gap is guaranteed non-empty for this buffer.
  auto buffer = ValidBuffer();
  const std::uint64_t keys_offset = ReadHeaderU64(buffer, 40);
  const std::uint64_t blocks_offset = ReadHeaderU64(buffer, 48);
  const std::uint64_t keys_end =
      keys_offset + std::uint64_t{4} * ReadHeaderU32(buffer, 12);
  ASSERT_LT(keys_end, blocks_offset);
  EXPECT_EQ(buffer[keys_end], std::byte{0});
  buffer[keys_end] = std::byte{0x7F};
  std::string error;
  EXPECT_FALSE(Snapshot::FromBuffer(std::move(buffer), &error).has_value());
  EXPECT_NE(error.find("padding"), std::string::npos) << error;
}

TEST(SnapshotV2Robustness, ForgedSectionChecksumStillFailsStructuralChecks) {
  // Fix up the keys-section checksum after breaking the key order: the
  // sortedness invariant must still reject the buffer.
  auto buffer = ValidBuffer();
  const std::uint64_t keys_offset = ReadHeaderU64(buffer, 40);
  const std::size_t keys_bytes = std::size_t{4} * ReadHeaderU32(buffer, 12);
  for (int i = 0; i < 4; ++i) {
    std::swap(buffer[keys_offset + i], buffer[keys_offset + 4 + i]);
  }
  std::span<const std::byte> keys(buffer.data() + keys_offset, keys_bytes);
  const std::uint64_t checksum = Fnv1a64(keys);
  for (int i = 0; i < 8; ++i) {
    buffer[80 + i] = static_cast<std::byte>((checksum >> (8 * i)) & 0xFF);
  }
  std::string error;
  EXPECT_FALSE(Snapshot::FromBuffer(std::move(buffer), &error).has_value());
  EXPECT_NE(error.find("ascending"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// The lockstep checksum pass and the fused invariant scan must agree
// with the plain definitions byte for byte and message for message.

std::vector<std::byte> RandomBytes(netsim::Rng& rng, std::size_t size) {
  std::vector<std::byte> bytes(size);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.NextBelow(256));
  return bytes;
}

void ExpectLockstepMatchesSequential(
    netsim::Rng& rng, const std::array<std::size_t, kSnapshotSections>& sizes) {
  std::array<std::vector<std::byte>, kSnapshotSections> storage;
  std::array<std::span<const std::byte>, kSnapshotSections> sections;
  for (std::size_t i = 0; i < kSnapshotSections; ++i) {
    storage[i] = RandomBytes(rng, sizes[i]);
    sections[i] = storage[i];
  }
  const std::array<std::uint64_t, kSnapshotSections> lockstep =
      SectionChecksums(sections);
  for (std::size_t i = 0; i < kSnapshotSections; ++i) {
    EXPECT_EQ(lockstep[i], Fnv1a64(sections[i]))
        << "section " << i << " of sizes " << sizes[0] << "," << sizes[1]
        << "," << sizes[2] << "," << sizes[3] << "," << sizes[4];
  }
}

TEST(SectionChecksums, MatchSequentialFnvOnEdgeSizes) {
  netsim::Rng rng(41);
  const std::vector<std::array<std::size_t, kSnapshotSections>> cases = {
      {0, 0, 0, 0, 0},         // empty snapshot
      {12, 12, 3, 0, 0},       // no blocks (m = 0, h = 0)
      {0, 0, 0, 24, 8},        // no entries
      {9, 9, 9, 9, 9},         // all equal
      {10, 9, 10, 9, 10},      // neighbours differ by one
      {1, 2, 3, 4, 5},         // strictly ascending
      {5, 4, 3, 2, 1},         // strictly descending
      {0, 1, 0, 1, 0},         // empty beside one byte
      {4096, 4095, 4097, 1, 4096},
  };
  for (const auto& sizes : cases) ExpectLockstepMatchesSequential(rng, sizes);
}

TEST(SectionChecksums, MatchSequentialFnvOnRandomSizes) {
  netsim::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::size_t, kSnapshotSections> sizes;
    for (std::size_t& size : sizes) {
      // A quarter of the sections empty, the rest up to 3000 bytes.
      size = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(3000);
    }
    ExpectLockstepMatchesSequential(rng, sizes);
  }
}

/// Buffers whose five sections all differ in length (and one where three
/// are equal), so every lockstep phase boundary falls somewhere new.
std::vector<std::vector<std::byte>> VariedBuffers() {
  std::vector<std::vector<std::byte>> buffers = {ValidBuffer()};
  netsim::Rng rng(7);
  for (int blocks : {1, 5, 13}) {
    std::vector<cluster::AggregateBlock> aggregate(blocks);
    std::vector<ClassifiedPrefix> classified;
    std::uint32_t next = 0x14000000;  // 20.0.0.0
    for (cluster::AggregateBlock& block : aggregate) {
      const int members = 1 + static_cast<int>(rng.NextBelow(6));
      for (int k = 0; k < members; ++k, next += 0x100) {
        block.member_24s.push_back(
            netsim::Prefix::Of(netsim::Ipv4Address(next), 24));
      }
      const int hops = 1 + static_cast<int>(rng.NextBelow(4));
      for (int k = 0; k < hops; ++k) {
        block.last_hops.emplace_back(0x0A000000u + next + k);
      }
      classified.push_back(
          {netsim::Prefix::Of(netsim::Ipv4Address(next), 24),
           static_cast<std::uint8_t>(rng.NextBelow(5))});
      next += 0x100;
    }
    buffers.push_back(CompileSnapshotV2(aggregate, classified, 9));
  }
  return buffers;
}

std::string LoadError(std::vector<std::byte> buffer) {
  std::string error;
  EXPECT_FALSE(Snapshot::FromBuffer(std::move(buffer), &error).has_value());
  return error;
}

TEST(SnapshotV2Robustness, LastByteOfEverySectionIsChecksummed) {
  const char* const names[kSnapshotSections] = {"keys", "blocks", "classes",
                                                "blocktab", "hops"};
  for (const std::vector<std::byte>& valid : VariedBuffers()) {
    const std::uint64_t n = ReadHeaderU32(valid, 12);
    const std::uint64_t m = ReadHeaderU32(valid, 16);
    const std::uint64_t h = ReadHeaderU32(valid, 20);
    const std::uint64_t sizes[kSnapshotSections] = {n * 4, n * 4, n, m * 12,
                                                    h * 4};
    for (std::size_t i = 0; i < kSnapshotSections; ++i) {
      ASSERT_GT(sizes[i], 0u);
      auto buffer = valid;
      buffer[ReadHeaderU64(valid, 40 + i * 8) + sizes[i] - 1] ^= std::byte{1};
      EXPECT_EQ(LoadError(std::move(buffer)),
                std::string("section checksum mismatch (") + names[i] + ")");
    }
  }
}

/// Rewrites the five header checksums to match the (tampered) sections,
/// so a load gets past them to the invariant scan.
void ForgeChecksums(std::vector<std::byte>& buffer) {
  const std::uint64_t n = ReadHeaderU32(buffer, 12);
  const std::uint64_t m = ReadHeaderU32(buffer, 16);
  const std::uint64_t h = ReadHeaderU32(buffer, 20);
  const std::uint64_t sizes[kSnapshotSections] = {n * 4, n * 4, n, m * 12,
                                                  h * 4};
  for (std::size_t i = 0; i < kSnapshotSections; ++i) {
    const std::uint64_t checksum = Fnv1a64(
        {buffer.data() + ReadHeaderU64(buffer, 40 + i * 8), sizes[i]});
    for (int b = 0; b < 8; ++b) {
      buffer[80 + i * 8 + b] =
          static_cast<std::byte>((checksum >> (8 * b)) & 0xFF);
    }
  }
}

TEST(SnapshotV2Robustness, InvariantScanNamesTheFirstFailure) {
  // 13 blocks, well over a dozen entries.  Faults go in at three places:
  // an unsorted pair ending at entry 4, a non-/24 key at entry 7 and an
  // out-of-range class at entry 10.  Each property is reported before
  // the next, and within one property the lowest index wins.
  const std::vector<std::byte> valid = VariedBuffers().back();
  const std::uint64_t n = ReadHeaderU32(valid, 12);
  ASSERT_GT(n, 10u);
  const std::uint64_t keys = ReadHeaderU64(valid, 40);
  const std::uint64_t blocks = ReadHeaderU64(valid, 48);
  const std::uint64_t classes = ReadHeaderU64(valid, 56);
  const std::uint64_t blocktab = ReadHeaderU64(valid, 64);
  auto unsort = [&](std::vector<std::byte>& b) {
    for (int k = 0; k < 4; ++k) std::swap(b[keys + 12 + k], b[keys + 16 + k]);
  };
  auto off_24 = [&](std::vector<std::byte>& b) {
    b[keys + 7 * 4] |= std::byte{1};
  };
  auto bad_class = [&](std::vector<std::byte>& b) {
    b[classes + 10] = std::byte{5};
  };
  auto bad_block = [&](std::vector<std::byte>& b) {
    b[blocks + 9 * 4] = std::byte{0xF0};  // id 240 of 13 blocks
  };
  auto bad_hop_run = [&](std::vector<std::byte>& b) {
    b[blocktab + 2 * 12 + 8] = std::byte{0xFF};  // block 2's hop count
  };
  auto error_after = [&](std::initializer_list<
                         std::function<void(std::vector<std::byte>&)>>
                             faults) {
    auto buffer = valid;
    for (const auto& fault : faults) fault(buffer);
    ForgeChecksums(buffer);
    return LoadError(std::move(buffer));
  };
  EXPECT_EQ(error_after({unsort, off_24, bad_class, bad_block, bad_hop_run}),
            "entry keys not strictly ascending at index 4");
  EXPECT_EQ(error_after({bad_hop_run, bad_class, off_24, unsort}),
            "entry keys not strictly ascending at index 4");
  EXPECT_EQ(error_after({off_24, bad_class, bad_block, bad_hop_run}),
            "entry key is not a /24 base at index 7");
  EXPECT_EQ(error_after({bad_class, bad_block, bad_hop_run}),
            "entry block id out of range at index 9");
  EXPECT_EQ(error_after({bad_class, bad_hop_run}),
            "entry classification out of range at index 10");
  // Each fault alone: the fused pass must flag every property by itself.
  EXPECT_EQ(error_after({unsort}),
            "entry keys not strictly ascending at index 4");
  EXPECT_EQ(error_after({off_24}), "entry key is not a /24 base at index 7");
  EXPECT_EQ(error_after({bad_block}), "entry block id out of range at index 9");
  EXPECT_EQ(error_after({bad_class}),
            "entry classification out of range at index 10");
  EXPECT_EQ(error_after({bad_hop_run}), "block 2 hop run exceeds the hop pool");
  auto clean = valid;
  ForgeChecksums(clean);
  EXPECT_EQ(clean, valid);
}

/// 40 entries over 8 blocks holding 12 last hops: the blocktab (24
/// words) and hops (12 words) chains end before the entries do, so the
/// verifying pass runs all three of its phases (both riding along, one,
/// none).
std::vector<std::byte> ThreePhaseBuffer() {
  std::vector<test::SnapshotEntry> entries(40);
  for (std::uint32_t i = 0; i < 40; ++i) {
    entries[i] = {0x14000000u + (i << 8), i % 9 == 4 ? kNoBlock : i % 8,
                  static_cast<std::uint8_t>(i % 7 == 6 ? kNoClass : i % 5)};
  }
  std::vector<cluster::AggregateBlock> blocks(8);
  for (std::uint32_t b = 0; b < 8; ++b) {
    blocks[b].last_hops.emplace_back(0x0A000000u + b);
    if (b % 2 == 0) blocks[b].last_hops.emplace_back(0x0A000100u + b);
  }
  return test::CompileRows(entries, std::move(blocks), 6);
}

TEST(SnapshotV2Robustness, EveryEntryCheckFiresAtEveryIndex) {
  const std::vector<std::byte> valid = ThreePhaseBuffer();
  ASSERT_EQ(ReadHeaderU32(valid, 12), 40u);
  ASSERT_EQ(ReadHeaderU32(valid, 16), 8u);
  ASSERT_EQ(ReadHeaderU32(valid, 20), 12u);
  ASSERT_TRUE(Snapshot::FromBuffer(valid).has_value());
  const std::uint64_t keys = ReadHeaderU64(valid, 40);
  const std::uint64_t blocks = ReadHeaderU64(valid, 48);
  const std::uint64_t classes = ReadHeaderU64(valid, 56);
  auto error_after = [&](const std::function<void(std::vector<std::byte>&)>&
                             fault) {
    auto buffer = valid;
    fault(buffer);
    ForgeChecksums(buffer);
    return LoadError(std::move(buffer));
  };
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string at = " at index " + std::to_string(i);
    if (i > 0) {
      // A duplicate of the previous key.
      EXPECT_EQ(error_after([&](std::vector<std::byte>& b) {
                  for (int k = 0; k < 4; ++k) {
                    b[keys + i * 4 + k] = b[keys + (i - 1) * 4 + k];
                  }
                }),
                "entry keys not strictly ascending" + at);
    }
    EXPECT_EQ(error_after([&](std::vector<std::byte>& b) {
                b[keys + i * 4] = std::byte{0x80};
              }),
              "entry key is not a /24 base" + at);
    // Block id 8 is the first out of range; kNoBlock and 7 pass.
    EXPECT_EQ(error_after([&](std::vector<std::byte>& b) {
                b[blocks + i * 4] = std::byte{8};
                for (int k = 1; k < 4; ++k) {
                  b[blocks + i * 4 + k] = std::byte{0};
                }
              }),
              "entry block id out of range" + at);
    for (std::uint8_t token : {5, 0x80, 0xFE}) {
      EXPECT_EQ(error_after([&](std::vector<std::byte>& b) {
                  b[classes + i] = std::byte{token};
                }),
                "entry classification out of range" + at);
    }
  }
  // The largest valid block id and class token pass.
  auto edge = valid;
  edge[blocks + 39 * 4] = std::byte{7};
  for (int k = 1; k < 4; ++k) edge[blocks + 39 * 4 + k] = std::byte{0};
  edge[classes + 39] = std::byte{4};
  ForgeChecksums(edge);
  EXPECT_TRUE(Snapshot::FromBuffer(edge).has_value());
}

TEST(SnapshotV2Robustness, EverySectionByteIsChecksummedInEveryPhase) {
  const char* const names[kSnapshotSections] = {"keys", "blocks", "classes",
                                                "blocktab", "hops"};
  const std::vector<std::byte> valid = ThreePhaseBuffer();
  for (std::size_t s = 0; s < kSnapshotSections; ++s) {
    const std::uint64_t begin = ReadHeaderU64(valid, 40 + s * 8);
    const std::uint64_t end = s + 1 < kSnapshotSections
                                  ? ReadHeaderU64(valid, 48 + s * 8)
                                  : valid.size();
    for (std::uint64_t offset = begin; offset < end; ++offset) {
      auto buffer = valid;
      buffer[offset] ^= std::byte{0x10};
      const std::string error = LoadError(std::move(buffer));
      // Past a section's end lies zero padding, checked before the sums.
      if (error.rfind("nonzero inter-section padding", 0) == 0) continue;
      EXPECT_EQ(error,
                std::string("section checksum mismatch (") + names[s] + ")")
          << offset;
    }
  }
}

class SnapshotV2Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotV2Fuzz, MutatedValidSnapshotsNeverCrash) {
  netsim::Rng rng(GetParam() + 500);
  const auto valid = ValidBuffer();
  for (int i = 0; i < 500; ++i) {
    auto buffer = valid;
    int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      buffer[rng.NextBelow(buffer.size())] =
          static_cast<std::byte>(rng.NextBelow(256));
    }
    std::string error;
    auto snapshot = Snapshot::FromBuffer(std::move(buffer), &error);
    if (snapshot.has_value()) {
      LookupEngine engine(*snapshot);
      engine.Lookup(Addr("20.0.1.1"));
      engine.Covering(Pfx("20.0.0.0/16"));
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_P(SnapshotV2Fuzz, DeferredLoadsOfMutationsNeverCrash) {
  // Deferred verification skips the O(payload) checks at load; a later
  // VerifyPayload must still catch (or pass) without faulting, and any
  // load that sneaks through must answer queries safely — both through
  // the protocol before verification and through the engine after.
  netsim::Rng rng(GetParam() + 900);
  const auto valid = ValidBuffer();
  SnapshotLoadOptions defer;
  defer.defer_verification = true;
  for (int i = 0; i < 300; ++i) {
    auto buffer = valid;
    int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      buffer[rng.NextBelow(buffer.size())] =
          static_cast<std::byte>(rng.NextBelow(256));
    }
    std::string error;
    auto snapshot = Snapshot::FromBuffer(std::move(buffer), &error, defer);
    if (!snapshot.has_value()) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    SnapshotStore store;
    ServeMetrics metrics;
    store.Swap(std::make_shared<const Snapshot>(*snapshot));
    LineService service(&store, &metrics);
    std::string out;
    for (const char* line : {"LOOKUP 20.0.1.1", "LOOKUP 20.0.9.0/24",
                             "LOOKUP 99.1.2.3", "LOOKUP 20.0.0.0/8"}) {
      EXPECT_TRUE(service.Execute(line, {}, &out));
    }
    EXPECT_TRUE(service.Execute(
        "BATCH 3", "20.0.1.0/24\n99.1.2.0/24\n20.0.9.9\n", &out));
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 8) << out;
    std::string verify_error;
    if (snapshot->VerifyPayload(&verify_error)) {
      LookupEngine engine(*snapshot);
      engine.Lookup(Addr("20.0.1.1"));
    } else {
      EXPECT_FALSE(verify_error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotV2Fuzz, ::testing::Values(1, 2, 3));

TEST(SnapshotV2Robustness, DeferredMmapLoadAnswersABadBlockIdWithErr) {
  // hobbit_serve --mmap defers the checksums, so an entry's block id is
  // unchecked when it is served: the reply must not read the block table
  // at that id.  99.1.2.0/24 is entry 2; its id becomes 0x7FFFFFF0.
  auto buffer = ValidBuffer();
  const std::uint64_t blocks = ReadHeaderU64(buffer, 48);
  for (int b = 0; b < 4; ++b) {
    buffer[blocks + 2 * 4 + b] =
        static_cast<std::byte>((0x7FFFFFF0u >> (8 * b)) & 0xFF);
  }
  const std::string path = ::testing::TempDir() + "bad_block_id.snap";
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, buffer, &error)) << error;
  SnapshotLoadOptions options;
  options.use_mmap = true;
  options.defer_verification = true;
  SnapshotStore store;
  ASSERT_TRUE(store.ReloadFromFile(path, &error, options)) << error;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  std::string out;
  EXPECT_TRUE(service.Execute("LOOKUP 99.1.2.3", {}, &out));
  EXPECT_TRUE(service.Execute("BATCH 2", "99.1.2.0/24\n20.0.1.0/24\n", &out));
  EXPECT_TRUE(service.Execute("LOOKUP 20.0.9.1", {}, &out));
  EXPECT_EQ(out,
            "ERR corrupt entry: 99.1.2.0/24 block=2147483632 blocks=2\n"
            "ERR corrupt entry: 99.1.2.0/24 block=2147483632 blocks=2\n"
            "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 hops=2\n"
            "OK 2\n"
            "HIT 20.0.9.0/24 block=0 class=- members=2 hops=2\n");
  EXPECT_FALSE(store.Current()->VerifyPayload(&error));
  EXPECT_EQ(error, "section checksum mismatch (blocks)");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Wire-protocol framing: LineFramer and Connection against hostile and
// fragmented byte streams.

/// A live service over the ValidBuffer() snapshot, for Connection tests.
class ProtocolFixture {
 public:
  ProtocolFixture() {
    std::string error;
    auto snapshot = Snapshot::FromBuffer(ValidBuffer(), &error);
    EXPECT_TRUE(snapshot.has_value()) << error;
    store_.Swap(std::make_shared<const Snapshot>(*std::move(snapshot)));
    service_ = std::make_unique<LineService>(&store_, &metrics_);
  }
  LineService* service() { return service_.get(); }

 private:
  SnapshotStore store_;
  ServeMetrics metrics_;
  std::unique_ptr<LineService> service_;
};

TEST(LineFramer, CrlfSplitAcrossAppendsYieldsOneLine) {
  LineFramer framer(64);
  std::string line;
  framer.Append("LOOKUP 20.0.1.1\r");
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kNeedMore);
  framer.Append("\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "LOOKUP 20.0.1.1");  // '\r' stripped
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kNeedMore);
}

TEST(LineFramer, NulByteIsAStickyError) {
  LineFramer framer(64);
  std::string line;
  framer.Append(std::string_view("LOOK\0UP x\n", 10));
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kBadByte);
  // Nothing rehabilitates a poisoned stream, valid lines included.
  framer.Append("STATS\n");
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kBadByte);
  EXPECT_TRUE(framer.poisoned());
}

TEST(LineFramer, OversizedLineIsAStickyError) {
  LineFramer framer(8);
  std::string line;
  // Exactly at the limit (terminator excluded) is fine...
  framer.Append("12345678\n");
  ASSERT_EQ(framer.Next(&line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "12345678");
  // ...one byte beyond is not, even before any newline shows up.
  framer.Append("123456789");
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kTooLong);
  framer.Append("\nSTATS\n");
  EXPECT_EQ(framer.Next(&line), LineFramer::Status::kTooLong);
}

TEST(LineFramer, CrlfDoesNotCountAgainstTheLimit) {
  LineFramer framer(8);
  std::string line;
  framer.Append("12345678\r\n");  // 9 raw bytes before '\n', 8 of content
  ASSERT_EQ(framer.Next(&line), LineFramer::Status::kLine);
  EXPECT_EQ(line, "12345678");
}

TEST(LineFramer, LongSessionsCompactTheBuffer) {
  // Tens of thousands of lines through a small framer: the consumed
  // prefix must be reclaimed (this is a liveness property — the assert
  // is simply that every line round-trips in order).
  LineFramer framer(64);
  std::string line;
  int sent = 0;
  int received = 0;
  for (int round = 0; round < 200; ++round) {
    std::string chunk;
    for (int i = 0; i < 100; ++i) {
      chunk += "line-" + std::to_string(sent++) + "\n";
    }
    framer.Append(chunk);
    while (framer.Next(&line) == LineFramer::Status::kLine) {
      ASSERT_EQ(line, "line-" + std::to_string(received));
      ++received;
    }
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(ConnectionProtocol, GarbageBeforeAndAfterValidCommands) {
  ProtocolFixture fixture;
  Connection conn(fixture.service(), ConnectionLimits{});
  // Unknown commands are protocol-legal noise: the session keeps going.
  EXPECT_TRUE(conn.Ingest("definitely not a command\n"
                          "LOOKUP 20.0.1.1\n"
                          "!!!\n"));
  EXPECT_FALSE(conn.Ingest("QUIT\n"));
  EXPECT_EQ(std::string(conn.pending()),
            "ERR unknown command: definitely\n"
            "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 hops=2\n"
            "ERR unknown command: !!!\n"
            "BYE\n");
  EXPECT_TRUE(conn.done());
  EXPECT_FALSE(conn.protocol_error());  // QUIT is a clean ending
}

TEST(ConnectionProtocol, EveryChunkingOfASessionGivesTheSameReply) {
  // Every reply form the protocol has, byte for byte.  The session starts
  // against an empty store and loads its snapshot with RELOAD: the
  // reloaded image adds 20.0.5.0/24, a classified /24 outside any block.
  cluster::AggregateBlock a;
  a.member_24s = {Pfx("20.0.1.0/24"), Pfx("20.0.9.0/24")};
  a.last_hops = {Addr("10.0.0.1"), Addr("10.0.0.2")};
  cluster::AggregateBlock b;
  b.member_24s = {Pfx("99.1.2.0/24")};
  b.last_hops = {Addr("10.0.0.9")};
  const auto same_last_hop =
      static_cast<std::uint8_t>(core::Classification::kSameLastHop);
  std::vector<ClassifiedPrefix> classified = {
      {Pfx("20.0.1.0/24"), same_last_hop}, {Pfx("20.0.5.0/24"), same_last_hop}};
  const std::string good = ::testing::TempDir() + "chunking_good.snap";
  const std::string bad = ::testing::TempDir() + "chunking_bad.snap";
  std::vector<std::byte> image = CompileSnapshotV2(
      std::vector<cluster::AggregateBlock>{a, b}, classified, 7);
  ASSERT_TRUE(WriteSnapshotFile(good, image));
  image[60] ^= std::byte{0xFF};
  ASSERT_TRUE(WriteSnapshotFile(bad, image));

  const std::string session =
      "# leading comment\r\n"
      "LOOKUP 20.0.1.1\n"
      "BATCH 2\n"
      "20.0.1.1\n"
      "8.8.8.8\n"
      "RELOAD " + bad + "\r\n"
      "RELOAD " + good + "\n"
      "BATCH 3\n"
      "20.0.1.1\r\n"
      "8.8.8.8\n"
      "99.1.2.3\n"
      "LOOKUP 20.0.9.4\n"
      "\n"
      "LOOKUP 20.0.5.9\n"
      "LOOKUP 8.8.8.0/24\n"
      "LOOKUP 20.0.0.0/16\n"
      "LOOKUP 20.0.1.0/26\n"
      "BATCH 1048577\n"
      "BATCH many\n"
      "RELOAD\n"
      "FROB x\n"
      "QUIT\n";
  const std::string expected =
      "ERR no snapshot loaded\n"
      "ERR no snapshot loaded\n"
      "ERR reload failed: bad section offset (classes)\n"
      "OK generation=1 entries=4 blocks=2 epoch=7\n"
      "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 hops=2\n"
      "MISS 8.8.8.8\n"
      "HIT 99.1.2.0/24 block=1 class=- members=1 hops=1\n"
      "OK 3\n"
      "HIT 20.0.9.0/24 block=0 class=- members=2 hops=2\n"
      "HIT 20.0.5.0/24 block=- class=same-last-hop members=- hops=-\n"
      "MISS 8.8.8.0/24\n"
      "COVER 20.0.0.0/16 entries=3 blocks=1\n"
      "ERR bad query: 20.0.1.0/26\n"
      "ERR batch too large: 1048577\n"
      "ERR bad batch size: many\n"
      "ERR reload needs a path\n"
      "ERR unknown command: FROB\n"
      "BYE\n";
  for (std::size_t chunk = 1; chunk <= session.size(); ++chunk) {
    SnapshotStore store;
    ServeMetrics metrics;
    LineService service(&store, &metrics);
    Connection conn(&service, ConnectionLimits{});
    bool more = true;
    for (std::size_t at = 0; at < session.size() && more; at += chunk) {
      more = conn.Ingest(
          std::string_view(session).substr(at, chunk));
    }
    EXPECT_EQ(std::string(conn.pending()), expected)
        << "chunk size " << chunk;
    EXPECT_TRUE(conn.done());
  }
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// Stdin and sockets share one protocol driver: a session tape served by
// LineService::Run answers byte for byte what a Connection answers,
// however the socket bytes are chunked.
TEST(ConnectionProtocol, StdioAndSocketSessionsAreByteIdentical) {
  const std::string tape =
      "# comment\r\n"
      "\r\n"
      "LOOKUP 20.0.1.1\r\n"
      "\n"
      "BATCH 3\r\n"
      "20.0.9.1\n"
      "\n"
      "99.1.2.3\r\n"
      "FROB now\r\n"
      "LOOKUP 8.8.8.8\n"
      "BATCH 4\n"
      "20.0.1.1\n"
      "8.8.8.8\n";  // cut short at EOF
  const std::string expected =
      "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 hops=2\n"
      "HIT 20.0.9.0/24 block=0 class=- members=2 hops=2\n"
      "ERR bad query: \n"
      "HIT 99.1.2.0/24 block=1 class=- members=1 hops=1\n"
      "OK 3\n"
      "ERR unknown command: FROB\n"
      "MISS 8.8.8.8\n"
      "ERR batch truncated at query 2\n";
  ProtocolFixture fixture;
  std::istringstream in(tape);
  std::ostringstream out;
  fixture.service()->Run(in, out);
  EXPECT_EQ(out.str(), expected);
  for (std::size_t chunk : {tape.size(), std::size_t{1}}) {
    Connection conn(fixture.service(), ConnectionLimits{});
    for (std::size_t at = 0; at < tape.size(); at += chunk) {
      ASSERT_TRUE(conn.Ingest(std::string_view(tape).substr(at, chunk)));
    }
    conn.OnEof();
    EXPECT_EQ(std::string(conn.pending()), expected) << "chunk " << chunk;
  }
}

// Hostile stdin ends the session exactly as it ends a socket.
TEST(ConnectionProtocol, HostileStdinEndsTheSessionLikeASocket) {
  ProtocolFixture fixture;
  auto serve_stdin = [&](const std::string& tape) {
    std::istringstream in(tape);
    std::ostringstream out;
    fixture.service()->Run(in, out);
    return out.str();
  };
  const std::string hit =
      "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 hops=2\n";
  const char nul_tape[] = "LOOKUP 20.0.1.1\nLOO\0KUP x\nLOOKUP 20.0.1.1\n";
  EXPECT_EQ(serve_stdin(std::string(nul_tape, sizeof(nul_tape) - 1)),
            hit + "ERR protocol: NUL byte in input\n");
  const std::string too_long(ConnectionLimits{}.max_line_bytes + 1, 'a');
  EXPECT_EQ(serve_stdin("LOOKUP 20.0.1.1\n" + too_long +
                        "\nLOOKUP 20.0.1.1\n"),
            hit + "ERR protocol: line too long\n");
  // No newline at all: the limit still holds at EOF.
  EXPECT_EQ(serve_stdin(too_long), "ERR protocol: line too long\n");
}

TEST(ConnectionProtocol, EofMidBatchReportsTruncation) {
  ProtocolFixture fixture;
  Connection conn(fixture.service(), ConnectionLimits{});
  EXPECT_TRUE(conn.Ingest("BATCH 3\n20.0.1.1\n"));
  conn.OnEof();
  EXPECT_TRUE(conn.done());
  EXPECT_NE(std::string(conn.pending()).find("ERR"), std::string::npos);
}

TEST(ConnectionProtocol, BackpressureHysteresisIsExact) {
  ProtocolFixture fixture;
  ConnectionLimits limits;
  limits.write_buffer_cap = 150;
  limits.write_buffer_resume = 40;
  Connection conn(fixture.service(), limits);
  // Each HIT reply is ~58 bytes; three commands cross the 150-byte cap.
  int commands = 0;
  while (!conn.paused()) {
    ASSERT_TRUE(conn.Ingest("LOOKUP 20.0.1.1\n"));
    ASSERT_LT(++commands, 100) << "cap never engaged";
  }
  EXPECT_GT(conn.pending().size(), limits.write_buffer_cap);
  // Drain one byte at a time: the pause must lift at exactly the first
  // moment the backlog is below the resume mark, not at the cap.
  while (conn.paused()) {
    std::size_t backlog = conn.pending().size();
    ASSERT_GT(backlog, 0u);
    conn.Consume(1);
    if (conn.pending().size() >= limits.write_buffer_resume) {
      EXPECT_TRUE(conn.paused());
    } else {
      EXPECT_FALSE(conn.paused());
    }
  }
  // Resumed: the connection accepts and answers new commands.
  ASSERT_TRUE(conn.Ingest("LOOKUP 99.1.2.3\n"));
  EXPECT_NE(std::string(conn.pending()).find("HIT 99.1.2.0/24"),
            std::string::npos);
}

// Seeded random byte streams against the full framing + dispatch stack.
// The generator mixes valid protocol, torn fragments, comments, NULs,
// oversized runs and binary noise, delivered in random chunk sizes; the
// invariants are structural, so any seed must hold them.
class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, RandomByteStreamsNeverCrashOrCorruptState) {
  netsim::Rng rng(GetParam());
  ProtocolFixture fixture;
  for (int round = 0; round < 120; ++round) {
    // Assemble a hostile input tape out of weighted segments.
    std::string tape;
    int segments = 1 + static_cast<int>(rng.NextBelow(30));
    for (int s = 0; s < segments; ++s) {
      switch (rng.NextBelow(8)) {
        case 0:
          tape += "LOOKUP 20.0.1.1\n";
          break;
        case 1:
          tape += "BATCH 2\n20.0.1.1\n99.1.2.3\n";
          break;
        case 2:
          tape += "STATS\r\n";
          break;
        case 3:
          tape += "# comment\n\n";
          break;
        case 4: {  // binary noise, NULs included
          std::size_t length = rng.NextBelow(40);
          for (std::size_t i = 0; i < length; ++i) {
            tape.push_back(static_cast<char>(rng.NextBelow(256)));
          }
          break;
        }
        case 5:  // a line that may or may not exceed max_line_bytes
          tape.append(rng.NextBelow(3000), 'a');
          break;
        case 6:
          tape += "BATCH 999999999999999999999\n";  // size parse edge
          break;
        case 7:
          tape.push_back('\n');
          break;
      }
    }
    ConnectionLimits limits;
    limits.max_line_bytes = 1u << 11;
    limits.write_buffer_cap = 1u << 12;
    limits.write_buffer_resume = 1u << 10;
    Connection conn(fixture.service(), limits);
    bool accepting = true;
    std::uint64_t last_commands = 0;
    std::string drained;  // what a real peer would have received so far
    for (std::size_t at = 0; at < tape.size();) {
      std::size_t chunk = 1 + rng.NextBelow(97);
      bool more =
          conn.Ingest(std::string_view(tape).substr(at, chunk));
      at += chunk;
      // Ingest is monotone: once it says stop, it never says go again.
      ASSERT_TRUE(accepting || !more);
      accepting = more;
      ASSERT_EQ(!more, conn.done());
      // Command counter only moves forward.
      ASSERT_GE(conn.commands(), last_commands);
      last_commands = conn.commands();
      // Replies are protocol text: never a NUL, whatever came in.
      ASSERT_EQ(conn.pending().find('\0'), std::string_view::npos);
      // Random partial drains exercise Consume()'s compaction paths.
      if (!conn.pending().empty() && rng.NextBelow(2) == 0) {
        std::size_t n = 1 + rng.NextBelow(conn.pending().size());
        drained.append(conn.pending().substr(0, n));
        conn.Consume(n);
      }
    }
    conn.OnEof();
    ASSERT_TRUE(conn.done());
    if (conn.protocol_error()) {
      // A framing kill always tells the client why before closing.
      std::string out = drained + std::string(conn.pending());
      ASSERT_NE(out.find("ERR protocol: "), std::string::npos);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace hobbit::serve
