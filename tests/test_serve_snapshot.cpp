// Snapshot compiler + lookup engine: round-trips, exact and covering
// queries, batch determinism, and the differential contract against
// cluster::BlockIndex (the reference implementation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "cluster/blockio.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "serve/lookup.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "snapshot_entries_oracle.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using test::Pfx;

std::vector<cluster::AggregateBlock> SampleBlocks() {
  cluster::AggregateBlock a;
  a.member_24s = {Pfx("20.0.1.0/24"), Pfx("20.0.9.0/24")};
  a.last_hops = {Addr("10.0.0.1"), Addr("10.0.0.2")};
  cluster::AggregateBlock b;
  b.member_24s = {Pfx("99.1.2.0/24")};
  b.last_hops = {Addr("10.0.0.9")};
  return {a, b};
}

std::vector<ClassifiedPrefix> SampleClassified() {
  return {
      {Pfx("20.0.1.0/24"),
       static_cast<std::uint8_t>(core::Classification::kSameLastHop)},
      // A /24 that was measured but never aggregated into a block:
      {Pfx("50.5.5.0/24"),
       static_cast<std::uint8_t>(core::Classification::kTooFewActive)},
  };
}

Snapshot MustLoad(std::vector<std::byte> buffer) {
  std::string error;
  auto snapshot = Snapshot::FromBuffer(std::move(buffer), &error);
  EXPECT_TRUE(snapshot.has_value()) << error;
  return *snapshot;
}

TEST(SnapshotCompile, RoundTripsBlocksAndClassifications) {
  auto blocks = SampleBlocks();
  Snapshot snapshot =
      MustLoad(CompileSnapshotV2(blocks, SampleClassified(), 42));
  EXPECT_EQ(snapshot.epoch(), 42u);
  EXPECT_EQ(snapshot.entry_count(), 4u);  // 3 member /24s + 1 results-only
  EXPECT_EQ(snapshot.block_count(), 2u);
  EXPECT_EQ(snapshot.hop_count(), 3u);
  // Keys strictly ascending.
  for (std::size_t i = 0; i + 1 < snapshot.entry_count(); ++i) {
    EXPECT_LT(snapshot.EntryKey(i), snapshot.EntryKey(i + 1));
  }
  EXPECT_EQ(snapshot.BlockMemberCount(0), 2u);
  EXPECT_EQ(snapshot.BlockMemberCount(1), 1u);
  EXPECT_EQ(snapshot.BlockLastHops(0),
            (std::vector<netsim::Ipv4Address>{Addr("10.0.0.1"),
                                              Addr("10.0.0.2")}));
  EXPECT_EQ(snapshot.BlockLastHops(1),
            (std::vector<netsim::Ipv4Address>{Addr("10.0.0.9")}));
}

TEST(SnapshotCompile, EmptyCampaignStillLoads) {
  Snapshot snapshot = MustLoad(CompileSnapshotV2({}, {}, 0));
  EXPECT_EQ(snapshot.entry_count(), 0u);
  LookupEngine engine(snapshot);
  EXPECT_FALSE(engine.Lookup(Addr("1.2.3.4")).found);
  EXPECT_TRUE(engine.Covering(Pfx("0.0.0.0/0")).empty());
}

TEST(SnapshotFile, WritesAndLoadsBack) {
  std::string path = ::testing::TempDir() + "serve_roundtrip.snap";
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(
      path, CompileSnapshotV2(SampleBlocks(), SampleClassified(), 3), &error))
      << error;
  auto snapshot = Snapshot::FromFile(path, &error);
  ASSERT_TRUE(snapshot.has_value()) << error;
  EXPECT_EQ(snapshot->epoch(), 3u);
  EXPECT_EQ(snapshot->entry_count(), 4u);
  std::remove(path.c_str());
  EXPECT_FALSE(Snapshot::FromFile(path, &error).has_value());
}

TEST(LookupEngine, ExactLookups) {
  Snapshot snapshot =
      MustLoad(CompileSnapshotV2(SampleBlocks(), SampleClassified(), 1));
  LookupEngine engine(snapshot);

  LookupResult hit = engine.Lookup(Pfx("20.0.1.0/24"));
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.block, 0u);
  EXPECT_EQ(hit.class_token,
            static_cast<std::uint8_t>(core::Classification::kSameLastHop));

  // Address form resolves through the covering /24.
  LookupResult by_address = engine.Lookup(Addr("99.1.2.200"));
  ASSERT_TRUE(by_address.found);
  EXPECT_EQ(by_address.block, 1u);
  EXPECT_EQ(by_address.class_token, kNoClass);

  // Results-only entry: present, but owned by no block.
  LookupResult orphan = engine.Lookup(Pfx("50.5.5.0/24"));
  ASSERT_TRUE(orphan.found);
  EXPECT_EQ(orphan.block, kNoBlock);

  EXPECT_FALSE(engine.Lookup(Pfx("8.8.8.0/24")).found);
  // Non-/24 prefixes miss by definition in the exact path.
  EXPECT_FALSE(engine.Lookup(Pfx("20.0.0.0/16")).found);
}

TEST(LookupEngine, CoveringQueries) {
  Snapshot snapshot =
      MustLoad(CompileSnapshotV2(SampleBlocks(), SampleClassified(), 1));
  LookupEngine engine(snapshot);

  EntryRange all = engine.Covering(Pfx("0.0.0.0/0"));
  EXPECT_EQ(all.size(), snapshot.entry_count());

  EntryRange sixteen = engine.Covering(Pfx("20.0.0.0/16"));
  EXPECT_EQ(sixteen.size(), 2u);
  EXPECT_EQ(engine.DistinctBlocks(sixteen), 1u);

  EntryRange exact = engine.Covering(Pfx("99.1.2.0/24"));
  EXPECT_EQ(exact.size(), 1u);

  EXPECT_TRUE(engine.Covering(Pfx("20.0.1.0/26")).empty());
  EXPECT_TRUE(engine.Covering(Pfx("77.0.0.0/8")).empty());
}

TEST(LookupEngine, BatchMatchesSerialForAnyThreadCount) {
  Snapshot snapshot =
      MustLoad(CompileSnapshotV2(SampleBlocks(), SampleClassified(), 1));
  LookupEngine engine(snapshot);
  std::vector<std::uint32_t> keys;
  for (std::uint32_t i = 0; i < 512; ++i) {
    keys.push_back((i * 2654435761u) & 0xFFFFFF00u);
  }
  for (std::size_t i = 0; i < snapshot.entry_count(); ++i) {
    keys.push_back(snapshot.EntryKey(i));
  }
  std::vector<LookupResult> serial(keys.size());
  engine.LookupBatch(keys, serial, nullptr);
  for (int threads : {1, 2, 7}) {
    common::ThreadPool pool(threads);
    std::vector<LookupResult> parallel(keys.size());
    engine.LookupBatch(keys, parallel, &pool);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(parallel[i].found, serial[i].found) << i;
      EXPECT_EQ(parallel[i].block, serial[i].block) << i;
      EXPECT_EQ(parallel[i].class_token, serial[i].class_token) << i;
    }
  }
}

// The differential contract: over a full simulated campaign, the compiled
// snapshot answers exactly as the reference cluster::BlockIndex, for every
// member /24, every study /24, and near-miss probes around each key.
TEST(LookupEngine, DifferentialAgainstBlockIndex) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(61));
  core::PipelineConfig config;
  config.seed = 61;
  config.calibration_blocks = 40;
  core::PipelineResult result = core::RunPipeline(internet, config);
  auto aggregates = cluster::AggregateIdentical(result.HomogeneousBlocks());
  ASSERT_FALSE(aggregates.empty());

  cluster::BlockIndex reference(aggregates);
  Snapshot snapshot = MustLoad(CompileSnapshotV2(
      aggregates,
      ClassifiedFrom(std::span<const core::BlockResult>(result.results)),
      61));
  LookupEngine engine(snapshot);

  auto check = [&](const netsim::Prefix& p) {
    int want = reference.BlockOf(p);
    LookupResult got = engine.Lookup(p);
    if (want < 0) {
      EXPECT_TRUE(!got.found || got.block == kNoBlock) << p.ToString();
    } else {
      ASSERT_TRUE(got.found) << p.ToString();
      EXPECT_EQ(got.block, static_cast<std::uint32_t>(want))
          << p.ToString();
    }
  };

  std::size_t member_count = 0;
  for (const auto& block : aggregates) {
    for (const auto& member : block.member_24s) {
      check(member);
      // Neighbouring /24s exercise the miss path next to every hit.
      check(netsim::Prefix::Of(
          netsim::Ipv4Address(member.base().value() + 256), 24));
      check(netsim::Prefix::Of(
          netsim::Ipv4Address(member.base().value() - 256), 24));
      ++member_count;
    }
  }
  EXPECT_EQ(member_count, reference.size());
  for (const auto& r : result.results) {
    check(r.prefix);
    // Classification must ride along for every measured /24.
    LookupResult got = engine.Lookup(r.prefix);
    ASSERT_TRUE(got.found) << r.prefix.ToString();
    EXPECT_EQ(got.class_token,
              static_cast<std::uint8_t>(r.classification))
        << r.prefix.ToString();
  }
}

TEST(BlockIndex, AddressOverloadMatchesPrefixOverload) {
  auto blocks = SampleBlocks();
  cluster::BlockIndex index(blocks);
  EXPECT_EQ(index.BlockOf(Addr("20.0.9.77")), 0);
  EXPECT_EQ(index.BlockOf(Addr("99.1.2.1")), 1);
  EXPECT_EQ(index.BlockOf(Addr("99.1.3.1")), -1);
  EXPECT_EQ(index.BlockOf(Pfx("20.0.0.0/16")), -1);
  EXPECT_EQ(index.size(), 3u);
}

// ---------------------------------------------------------------------
// The 64-byte-aligned, section-offset layout hobbit_serve can mmap and
// serve zero-copy.

std::uint64_t HeaderU64(std::span<const std::byte> buffer,
                        std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(buffer[offset + i]) << (8 * i);
  }
  return value;
}

TEST(SnapshotV2, LayoutInvariants) {
  auto buffer = CompileSnapshotV2(SampleBlocks(), SampleClassified(), 7);
  ASSERT_GE(buffer.size(), kSnapshotHeaderBytes);
  // file_bytes field matches reality; every section offset is 64-byte
  // aligned, ascending, and inside the file.
  EXPECT_EQ(HeaderU64(buffer, 32), buffer.size());
  std::uint64_t previous = kSnapshotHeaderBytes;
  for (int section = 0; section < 5; ++section) {
    const std::uint64_t offset = HeaderU64(buffer, 40 + section * 8);
    EXPECT_EQ(offset % kSnapshotAlignment, 0u) << "section " << section;
    EXPECT_GE(offset, previous) << "section " << section;
    EXPECT_LE(offset, buffer.size()) << "section " << section;
    previous = offset;
  }
  Snapshot snapshot = MustLoad(std::move(buffer));
  EXPECT_TRUE(snapshot.fully_verified());
}

TEST(SnapshotV2, DeterministicBytes) {
  auto blocks = SampleBlocks();
  EXPECT_EQ(CompileSnapshotV2(blocks, SampleClassified(), 9),
            CompileSnapshotV2(blocks, SampleClassified(), 9));
}

// Pins the v2 bytes of a fixed campaign: the same calls as
// `hobbit_sim export-snapshot --scale 0.02 --seed 5` (no --blocks, so a
// fresh simulated run).  The constants were recorded from that command;
// any change to the layout, the section checksums or the identity fold
// shows up here.
TEST(SnapshotV2, GoldenCampaignBytes) {
  netsim::InternetConfig world;
  world.seed = 5;
  world.scale = 0.02;
  netsim::Internet internet = netsim::BuildInternet(world);
  common::ThreadPool pool(1);
  core::PipelineConfig config;
  config.seed = 5;
  config.pool = &pool;
  core::PipelineResult result = core::RunPipeline(internet, config);
  auto blocks = cluster::AggregateIdentical(result.HomogeneousBlocks());
  auto classified =
      ClassifiedFrom(std::span<const core::BlockResult>(result.results));
  Snapshot snapshot = MustLoad(CompileSnapshotV2(blocks, classified, 0));
  EXPECT_EQ(snapshot.block_count(), 316u);
  EXPECT_EQ(snapshot.entry_count(), 1111u);
  EXPECT_EQ(snapshot.hop_count(), 629u);
  EXPECT_EQ(snapshot.bytes().size(), 16596u);
  EXPECT_EQ(snapshot.checksum(), 0x61d3931baeffb920ULL);
}

TEST(SnapshotV2, MmapMatchesOwnedBuffer) {
  std::string path = ::testing::TempDir() + "serve_v2_mmap.snap";
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(
      path, CompileSnapshotV2(SampleBlocks(), SampleClassified(), 4), &error))
      << error;
  auto owned = Snapshot::FromFile(path, &error);
  ASSERT_TRUE(owned.has_value()) << error;
  SnapshotLoadOptions options;
  options.use_mmap = true;
  auto mapped = Snapshot::FromFile(path, &error, options);
  ASSERT_TRUE(mapped.has_value()) << error;
  EXPECT_FALSE(owned->is_mapped());

  // Byte identity of the served image, however it is stored.
  auto owned_bytes = owned->bytes();
  auto mapped_bytes = mapped->bytes();
  ASSERT_EQ(owned_bytes.size(), mapped_bytes.size());
  EXPECT_EQ(std::memcmp(owned_bytes.data(), mapped_bytes.data(),
                        owned_bytes.size()),
            0);
  EXPECT_TRUE(mapped->fully_verified());  // eager verification by default

  // Lookup identity, including through copies (the shared mapping must
  // survive Snapshot copies — that is how SnapshotStore republishes).
  Snapshot copy = *mapped;
  LookupEngine owned_engine(*owned);
  LookupEngine mapped_engine(copy);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    const netsim::Ipv4Address query((i * 2654435761u) & 0xFFFFFF00u);
    LookupResult a = owned_engine.Lookup(query);
    LookupResult b = mapped_engine.Lookup(query);
    EXPECT_EQ(a.found, b.found) << i;
    EXPECT_EQ(a.block, b.block) << i;
    EXPECT_EQ(a.class_token, b.class_token) << i;
  }
  std::remove(path.c_str());
}

TEST(SnapshotV2, DeferredVerificationIsOnDemand) {
  std::string path = ::testing::TempDir() + "serve_v2_defer.snap";
  auto buffer = CompileSnapshotV2(SampleBlocks(), SampleClassified(), 4);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, buffer, &error)) << error;
  SnapshotLoadOptions options;
  options.use_mmap = true;
  options.defer_verification = true;
  auto deferred = Snapshot::FromFile(path, &error, options);
  ASSERT_TRUE(deferred.has_value()) << error;
  EXPECT_FALSE(deferred->fully_verified());
  EXPECT_TRUE(deferred->VerifyPayload(&error)) << error;
  std::remove(path.c_str());

  // Corrupt one payload byte: structural (header) checks still pass at
  // load, and the deferred verification catches it when finally asked.
  auto corrupt = buffer;
  corrupt[corrupt.size() - 1] ^= std::byte{0x40};
  SnapshotLoadOptions defer_only;
  defer_only.defer_verification = true;
  auto snapshot = Snapshot::FromBuffer(corrupt, &error, defer_only);
  ASSERT_TRUE(snapshot.has_value()) << error;
  std::string verify_error;
  EXPECT_FALSE(snapshot->VerifyPayload(&verify_error));
  EXPECT_FALSE(verify_error.empty());
  // The same corruption is rejected outright under eager verification.
  EXPECT_FALSE(Snapshot::FromBuffer(corrupt, &error).has_value());
}

// Re-exporting over a file a server has mapped must not disturb the live
// mapping: WriteSnapshotFile renames a new inode into place instead of
// truncating the old one (which would SIGBUS the next access to a
// truncated page).
TEST(SnapshotFile, OverwriteKeepsAMappedSnapshotIntact) {
  std::string path = ::testing::TempDir() + "serve_overwrite.snap";
  std::string error;
  const auto old_bytes =
      CompileSnapshotV2(SampleBlocks(), SampleClassified(), 1);
  ASSERT_TRUE(WriteSnapshotFile(path, old_bytes, &error)) << error;
  SnapshotLoadOptions options;
  options.use_mmap = true;
  auto mapped = Snapshot::FromFile(path, &error, options);
  ASSERT_TRUE(mapped.has_value()) << error;

  // A different epoch and a smaller state: the new file is shorter than
  // the mapping, so an in-place rewrite would have truncated it.
  const std::vector<cluster::AggregateBlock> smaller = {SampleBlocks()[1]};
  ASSERT_TRUE(
      WriteSnapshotFile(path, CompileSnapshotV2(smaller, {}, 2), &error))
      << error;
  EXPECT_EQ(mapped->epoch(), 1u);
  ASSERT_EQ(mapped->bytes().size(), old_bytes.size());
  EXPECT_EQ(std::memcmp(mapped->bytes().data(), old_bytes.data(),
                        old_bytes.size()),
            0);
  EXPECT_TRUE(mapped->VerifyPayload(&error)) << error;

  SnapshotStore store;
  ASSERT_TRUE(store.ReloadFromFile(path, &error, options)) << error;
  EXPECT_EQ(store.Current()->epoch(), 2u);
  EXPECT_EQ(store.Current()->entry_count(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// EytzingerIndex: differential against the sorted-array searches.

TEST(EytzingerIndex, MatchesStdLowerAndUpperBound) {
  // Every count up to 2100 covers every fill of the ragged last level
  // for trees of height 0..11, where node ranks come from the closed form.
  std::vector<std::size_t> counts(2101);
  std::iota(counts.begin(), counts.end(), std::size_t{0});
  counts.push_back(4097);
  for (std::size_t count : counts) {
    std::vector<std::uint32_t> keys(count);
    for (std::size_t i = 0; i < count; ++i) {
      keys[i] = static_cast<std::uint32_t>(i * 977 + (i % 3));
    }
    EytzingerIndex index = EytzingerIndex::Build(keys);
    ASSERT_EQ(index.size(), count);
    auto check = [&](std::uint32_t q) {
      const auto lower = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
      const auto upper = static_cast<std::size_t>(
          std::upper_bound(keys.begin(), keys.end(), q) - keys.begin());
      EXPECT_EQ(index.LowerBoundRank(q), lower) << q;
      EXPECT_EQ(index.UpperBoundRank(q), upper) << q;
      // The engine's exact-match rule: the key at the lower-bound rank.
      const std::size_t rank = index.LowerBoundRank(q);
      EXPECT_EQ(rank < count && keys[rank] == q,
                std::binary_search(keys.begin(), keys.end(), q))
          << q;
    };
    check(0);
    check(0xFFFFFFFFu);
    for (std::uint32_t q : keys) {
      check(q);
      check(q + 1);
      check(q == 0 ? 0 : q - 1);
    }
    netsim::Rng rng(count + 17);
    for (int i = 0; i < 500; ++i) {
      check(static_cast<std::uint32_t>(rng.Next()));
    }
  }
}

TEST(EytzingerShape, SlotOfInvertsRankOfForEveryCount) {
  // Every count up to 2100 covers every fill of the ragged last level
  // for trees of height 0..11.
  for (std::size_t count = 0; count <= 2100; ++count) {
    const EytzingerShape shape(count);
    std::vector<bool> taken(count + 1, false);
    for (std::size_t rank = 0; rank < count; ++rank) {
      const std::size_t slot = shape.SlotOf(rank);
      ASSERT_GE(slot, 1u) << count << " " << rank;
      ASSERT_LE(slot, count) << count << " " << rank;
      ASSERT_FALSE(taken[slot]) << count << " " << rank;
      taken[slot] = true;
      ASSERT_EQ(shape.RankOf(slot), rank) << count;
    }
  }
}

/// `n` entries over `m` blocks holding `h` last hops in all (h >= m >
/// 0), so the blocktab (3m words) and hop (h words) sections can be made
/// shorter or longer than the entry sections.
std::vector<std::byte> ShapedSnapshot(std::uint32_t n, std::uint32_t m,
                                      std::uint32_t h) {
  std::vector<test::SnapshotEntry> entries(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    entries[i] = {(i + 1) << 8, i % 7 == 3 ? kNoBlock : i % m,
                  static_cast<std::uint8_t>(i % 6 == 5 ? kNoClass : i % 5)};
  }
  std::vector<cluster::AggregateBlock> blocks(m);
  for (std::uint32_t b = 0; b < m; ++b) {
    for (std::uint32_t k = 0; k < h / m + (b < h % m ? 1 : 0); ++k) {
      blocks[b].last_hops.emplace_back(0x0A000000u + b * 64 + k);
    }
  }
  return test::CompileRows(entries, std::move(blocks), 4);
}

TEST(EytzingerIndex, VerifyingLoadBuildsTheSameIndexAsBuild) {
  // One index recycled through loads that grow and shrink it, with the
  // blocktab and hop chains outlasting the entries or ending first.
  EytzingerIndex recycled;
  SnapshotLoadOptions deferred;
  deferred.defer_verification = true;
  const std::uint32_t shapes[][3] = {{0, 1, 1},     {1, 1, 1},
                                     {2, 1, 3},     {3, 2, 2},
                                     {64, 5, 9},    {100, 80, 400},
                                     {1000, 10, 2000}, {4097, 1000, 1500},
                                     {50, 40, 60},  {777, 3, 3}};
  for (const auto& shape : shapes) {
    const std::vector<std::byte> bytes =
        ShapedSnapshot(shape[0], shape[1], shape[2]);
    std::string error;
    std::optional<Snapshot> loaded =
        Snapshot::FromBuffer(bytes, &error, {}, &recycled);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(loaded->fully_verified());
    EXPECT_TRUE(recycled == EytzingerIndex::Build(*loaded)) << shape[0];
    EytzingerIndex from_deferred;
    ASSERT_TRUE(
        Snapshot::FromBuffer(bytes, &error, deferred, &from_deferred))
        << error;
    EXPECT_TRUE(from_deferred == recycled) << shape[0];
  }
}

TEST(SnapshotFile, RecycledStorageLoadsLikeAFreshRead) {
  const std::string large = ::testing::TempDir() + "recycle_large.snap";
  const std::string small = ::testing::TempDir() + "recycle_small.snap";
  ASSERT_TRUE(WriteSnapshotFile(large, ShapedSnapshot(3000, 200, 500)));
  ASSERT_TRUE(WriteSnapshotFile(small, ShapedSnapshot(40, 4, 9)));
  std::vector<std::byte> storage;
  EytzingerIndex index;
  for (const std::string& path : {small, large, small, large, large}) {
    std::string error;
    std::optional<Snapshot> fresh = Snapshot::FromFile(path, &error);
    ASSERT_TRUE(fresh.has_value()) << error;
    std::optional<Snapshot> recycled =
        Snapshot::FromFile(path, &error, {}, &storage, &index);
    ASSERT_TRUE(recycled.has_value()) << error;
    EXPECT_TRUE(std::equal(recycled->bytes().begin(), recycled->bytes().end(),
                           fresh->bytes().begin(), fresh->bytes().end()));
    EXPECT_TRUE(index == EytzingerIndex::Build(*fresh));
    storage = std::move(*recycled).TakeBuffer();
    EXPECT_EQ(storage.size(), fresh->buffer_bytes());
  }
  // A failed load hands the storage back.
  const std::size_t capacity = storage.capacity();
  std::string error;
  std::vector<std::byte> truncated = ShapedSnapshot(3000, 200, 500);
  truncated.resize(truncated.size() - 8);
  ASSERT_TRUE(WriteSnapshotFile(small, truncated));
  EXPECT_FALSE(Snapshot::FromFile(small, &error, {}, &storage, &index));
  EXPECT_EQ(error, "truncated payload");
  EXPECT_EQ(storage.capacity(), capacity);
  std::remove(large.c_str());
  std::remove(small.c_str());
}

TEST(EytzingerIndex, EngineWithIndexMatchesEngineWithout) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(62));
  core::PipelineConfig config;
  config.seed = 62;
  config.calibration_blocks = 40;
  core::PipelineResult result = core::RunPipeline(internet, config);
  auto aggregates = cluster::AggregateIdentical(result.HomogeneousBlocks());
  Snapshot snapshot = MustLoad(CompileSnapshotV2(
      aggregates,
      ClassifiedFrom(std::span<const core::BlockResult>(result.results)),
      62));
  EytzingerIndex index = EytzingerIndex::Build(snapshot);
  ASSERT_EQ(index.size(), snapshot.entry_count());
  LookupEngine plain(snapshot);
  LookupEngine indexed(snapshot, &index);
  netsim::Rng rng(62);
  auto check_pair = [&](netsim::Ipv4Address query) {
    LookupResult a = plain.Lookup(query);
    LookupResult b = indexed.Lookup(query);
    EXPECT_EQ(a.found, b.found) << query.value();
    EXPECT_EQ(a.block, b.block) << query.value();
    EXPECT_EQ(a.class_token, b.class_token) << query.value();
  };
  for (std::size_t i = 0; i < snapshot.entry_count(); ++i) {
    check_pair(netsim::Ipv4Address(snapshot.EntryKey(i)));
    check_pair(netsim::Ipv4Address(snapshot.EntryKey(i) + 256));
  }
  for (int i = 0; i < 2000; ++i) {
    check_pair(netsim::Ipv4Address(static_cast<std::uint32_t>(rng.Next())));
  }
  // Covering queries share the accelerated lower/upper bounds.
  for (int length : {0, 8, 16, 24}) {
    for (int i = 0; i < 64; ++i) {
      const netsim::Prefix p = netsim::Prefix::Of(
          netsim::Ipv4Address(static_cast<std::uint32_t>(rng.Next())),
          length);
      EntryRange a = plain.Covering(p);
      EntryRange b = indexed.Covering(p);
      EXPECT_EQ(a.begin, b.begin) << p.ToString();
      EXPECT_EQ(a.end, b.end) << p.ToString();
    }
  }
  // A size-mismatched index is refused (engine falls back to binary
  // search rather than descending a stale layout).
  Snapshot empty = MustLoad(CompileSnapshotV2({}, {}, 0));
  LookupEngine guarded(empty, &index);
  EXPECT_FALSE(guarded.Lookup(netsim::Ipv4Address(0)).found);
}

// --- Entry resolution against the std::map oracle ----------------------
//
// The e2e benchmark's expected replies come from the compiled snapshot
// itself, so only these tests catch a resolver that merges duplicate
// keys differently from the one-map-insert-per-record original.

void ExpectSameEntries(const std::vector<test::SnapshotEntry>& got,
                       const std::vector<test::SnapshotEntry>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << context << " entry " << i;
    ASSERT_EQ(got[i].block, want[i].block) << context << " entry " << i;
    ASSERT_EQ(got[i].class_token, want[i].class_token)
        << context << " entry " << i;
  }
}

/// The entry sections of the compile of `blocks` + `classified`.
std::vector<test::SnapshotEntry> EntriesOf(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified) {
  return test::CompiledEntries(CompileSnapshotV2(blocks, classified, 7));
}

std::uint8_t Token(core::Classification c) {
  return static_cast<std::uint8_t>(c);
}

struct BlockMap {
  std::vector<cluster::AggregateBlock> blocks;
  std::vector<ClassifiedPrefix> classified;
};

/// A random block map over a small pool of keys, so keys repeat within a
/// block, across blocks and across classified records, in no order.  The
/// pool varies only some key bytes (the rest are the same in every key),
/// and now and then holds longer prefixes whose keys are not /24 bases.
BlockMap RandomBlockMap(std::uint64_t seed) {
  static constexpr std::uint32_t kVaryingBytes[] = {
      0xFFFFFFFFu, 0x0000FFFFu, 0xFF0000FFu, 0x00FF0000u, 0x000000FFu};
  netsim::Rng rng(seed);
  const std::uint32_t varying = kVaryingBytes[rng.NextBelow(5)];
  const auto fixed = static_cast<std::uint32_t>(rng.Next()) & ~varying;
  std::vector<netsim::Prefix> pool(1 + rng.NextBelow(40));
  for (netsim::Prefix& prefix : pool) {
    const auto bits = static_cast<std::uint32_t>(rng.Next()) & varying;
    const int length =
        rng.NextBool(0.1) ? 25 + static_cast<int>(rng.NextBelow(8)) : 24;
    prefix = netsim::Prefix::Of(netsim::Ipv4Address(fixed | bits), length);
  }
  auto draw = [&] { return pool[rng.NextBelow(pool.size())]; };
  BlockMap map;
  map.blocks.resize(rng.NextBelow(6));
  for (cluster::AggregateBlock& block : map.blocks) {
    for (std::uint64_t m = rng.NextBelow(5); m > 0; --m) {
      block.member_24s.push_back(draw());
    }
  }
  for (std::uint64_t c = rng.NextBelow(12); c > 0; --c) {
    const std::uint64_t token = rng.NextBelow(7);
    map.classified.push_back(
        {draw(), token < 5 ? static_cast<std::uint8_t>(token) : kNoClass});
  }
  return map;
}

std::uint32_t U32At(std::span<const std::byte> bytes, std::size_t offset) {
  return wire::ReadU32(bytes.data() + offset);
}
std::uint64_t U64At(std::span<const std::byte> bytes, std::size_t offset) {
  return wire::ReadU64(bytes.data() + offset);
}

/// The compiled entry sections equal the oracle's entries, and the
/// header and block sections hold `blocks` as the format lays them out.
void ExpectCompileMatchesOracle(
    std::span<const cluster::AggregateBlock> blocks,
    std::span<const ClassifiedPrefix> classified, const std::string& context) {
  const std::vector<std::byte> bytes = CompileSnapshotV2(blocks, classified, 7);
  ExpectSameEntries(test::CompiledEntries(bytes),
                    test::OracleSnapshotEntries(blocks, classified), context);
  EXPECT_EQ(U64At(bytes, 24), 7u) << context;
  ASSERT_EQ(U32At(bytes, 16), blocks.size()) << context;
  const std::size_t blocktab = U64At(bytes, 64);
  const std::size_t hops = U64At(bytes, 72);
  std::uint32_t hop_offset = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t row = blocktab + b * 12;
    EXPECT_EQ(U32At(bytes, row), blocks[b].member_24s.size()) << context;
    EXPECT_EQ(U32At(bytes, row + 4), hop_offset) << context;
    ASSERT_EQ(U32At(bytes, row + 8), blocks[b].last_hops.size()) << context;
    for (const netsim::Ipv4Address& hop : blocks[b].last_hops) {
      EXPECT_EQ(U32At(bytes, hops + hop_offset++ * 4), hop.value())
          << context;
    }
  }
  EXPECT_EQ(U32At(bytes, 20), hop_offset) << context;
}

TEST(SnapshotEntries, MatchesTheMapOracleOnSeededInputs) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const BlockMap map = RandomBlockMap(seed);
    ExpectSameEntries(EntriesOf(map.blocks, map.classified),
                      test::OracleSnapshotEntries(map.blocks, map.classified),
                      "seed " + std::to_string(seed));
  }
}

TEST(SnapshotEntries, CompileMatchesTheOracleAssemblyOnSeededInputs) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const BlockMap map = RandomBlockMap(seed);
    ExpectCompileMatchesOracle(map.blocks, map.classified,
                               "seed " + std::to_string(seed));
  }
}

TEST(SnapshotEntries, KeysAtBitmapWordAndSummaryBoundaries) {
  // The first and last /24, the last bit of the first bitmap word and the
  // first of the second, the first word of the second summary group and
  // the last word of the first, each alone and in every pairing of block
  // member and classified record.
  const std::vector<netsim::Prefix> edges = {
      Pfx("0.0.0.0/24"),   Pfx("0.0.63.0/24"),   Pfx("0.0.64.0/24"),
      Pfx("0.15.255.0/24"), Pfx("0.16.0.0/24"),  Pfx("255.255.255.0/24")};
  const std::uint8_t few = Token(core::Classification::kTooFewActive);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = 0; j < edges.size(); ++j) {
      std::vector<cluster::AggregateBlock> blocks(2);
      blocks[0].member_24s = {edges[i]};
      blocks[1].member_24s = {edges[j], edges[i]};
      const std::vector<ClassifiedPrefix> classified = {
          {edges[j], few}, {edges[(i + j) % edges.size()], kNoClass}};
      ExpectCompileMatchesOracle(
          blocks, classified,
          edges[i].ToString() + " " + edges[j].ToString());
    }
  }
  std::vector<cluster::AggregateBlock> all(1);
  all[0].member_24s = edges;
  std::vector<ClassifiedPrefix> reversed;
  for (auto edge = edges.rbegin(); edge != edges.rend(); ++edge) {
    reversed.push_back({*edge, few});
  }
  ExpectCompileMatchesOracle(all, reversed, "all edges");
  const std::vector<test::SnapshotEntry> entries = EntriesOf(all, reversed);
  ASSERT_EQ(entries.size(), edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(entries[k].key, edges[k].base().value());
    EXPECT_EQ(entries[k].block, 0u);
    EXPECT_EQ(entries[k].class_token, few);
  }
}

TEST(SnapshotEntries, KeysThatAreNotSlash24BasesSortAmongTheSlash24s) {
  // Longer prefixes resolve as their own keys, beside the /24 that holds
  // them: before it never, after it always, and before the next /24.
  const std::uint8_t same = Token(core::Classification::kSameLastHop);
  std::vector<cluster::AggregateBlock> blocks(3);
  blocks[0].member_24s = {Pfx("10.0.0.128/25"), Pfx("10.0.0.0/24"),
                          Pfx("10.0.1.0/24")};
  blocks[1].member_24s = {Pfx("10.0.0.64/26"), Pfx("10.0.0.128/25"),
                          Pfx("0.0.63.128/25"), Pfx("255.255.255.255/32")};
  blocks[2].member_24s = {Pfx("0.0.64.0/24"), Pfx("0.0.63.0/24"),
                          Pfx("77.7.7.7/32")};
  const std::vector<ClassifiedPrefix> classified = {
      {Pfx("10.0.0.64/26"), kNoClass},
      {Pfx("10.0.0.64/26"), same},
      {Pfx("10.0.0.0/24"), same},
      {Pfx("255.255.255.0/24"), same},
      {Pfx("0.0.0.1/32"), same}};
  ExpectCompileMatchesOracle(blocks, classified, "mixed");
  std::vector<std::uint32_t> keys;
  for (const test::SnapshotEntry& e : EntriesOf(blocks, classified)) {
    keys.push_back(e.key);
  }
  const std::vector<std::uint32_t> want = {
      Addr("0.0.0.1").value(),      Addr("0.0.63.0").value(),
      Addr("0.0.63.128").value(),   Addr("0.0.64.0").value(),
      Addr("10.0.0.0").value(),     Addr("10.0.0.64").value(),
      Addr("10.0.0.128").value(),   Addr("10.0.1.0").value(),
      Addr("77.7.7.7").value(),     Addr("255.255.255.0").value(),
      Addr("255.255.255.255").value()};
  EXPECT_EQ(keys, want);
  // Longer prefixes only, no /24 at all.
  const std::vector<ClassifiedPrefix> only = {{Pfx("9.9.9.9/32"), same},
                                              {Pfx("9.9.9.8/30"), kNoClass}};
  ExpectCompileMatchesOracle({}, only, "no /24");
}

TEST(SnapshotCompile, KeyLongerThanSlash24CompilesButDoesNotLoad) {
  // Only /24 bases are loadable keys: a /25 member is compiled as its
  // own key, 10.0.0.128, and the loader refuses the file.
  std::vector<cluster::AggregateBlock> blocks(1);
  blocks[0].member_24s = {Pfx("10.0.0.0/24"), Pfx("10.0.0.128/25")};
  blocks[0].last_hops = {Addr("10.0.0.1")};
  std::string error;
  EXPECT_FALSE(
      Snapshot::FromBuffer(CompileSnapshotV2(blocks, {}, 1), &error));
  EXPECT_EQ(error, "entry key is not a /24 base at index 1");
}

TEST(SnapshotEntries, DuplicateKeysResolveByTheDocumentedRule) {
  const std::uint8_t same = Token(core::Classification::kSameLastHop);
  const std::uint8_t few = Token(core::Classification::kTooFewActive);
  std::vector<cluster::AggregateBlock> blocks(3);
  // 30.0.0.0/24 in blocks 1 and 2 (lowest index wins); 40.0.0.0/24
  // twice in block 2; members out of key order.
  blocks[1].member_24s = {Pfx("40.0.0.0/24"), Pfx("30.0.0.0/24")};
  blocks[2].member_24s = {Pfx("40.0.0.0/24"), Pfx("30.0.0.0/24"),
                          Pfx("40.0.0.0/24")};
  const std::vector<ClassifiedPrefix> classified = {
      // Classified twice, kNoClass first: the second token wins.
      {Pfx("30.0.0.0/24"), kNoClass},
      {Pfx("30.0.0.0/24"), same},
      {Pfx("30.0.0.0/24"), few},
      // Classified only: no block.
      {Pfx("50.0.0.0/24"), few},
      {Pfx("10.0.0.0/24"), kNoClass},
  };
  const std::vector<test::SnapshotEntry> want = {
      {Addr("10.0.0.0").value(), kNoBlock, kNoClass},
      {Addr("30.0.0.0").value(), 1, same},
      {Addr("40.0.0.0").value(), 1, kNoClass},
      {Addr("50.0.0.0").value(), kNoBlock, few},
  };
  ExpectSameEntries(EntriesOf(blocks, classified), want, "rule");
  ExpectSameEntries(test::OracleSnapshotEntries(blocks, classified), want,
                    "oracle");
}

TEST(SnapshotEntries, EmptyInputsResolveToNoEntries) {
  const std::vector<cluster::AggregateBlock> no_members(4);
  EXPECT_TRUE(EntriesOf({}, {}).empty());
  EXPECT_TRUE(EntriesOf(no_members, {}).empty());
  const std::vector<ClassifiedPrefix> one = {{Pfx("9.9.9.0/24"), kNoClass}};
  ExpectSameEntries(EntriesOf({}, one),
                    test::OracleSnapshotEntries({}, one), "classified only");
}

/// A census-sized block map (3.37 M /24s, ~710 k blocks) shaped like the
/// end-to-end benchmark's census, but with blocks and classified records
/// in descending key order, against the order the entries come out in.
BlockMap ReversedCensus(std::size_t entries, std::uint64_t seed) {
  BlockMap map;
  netsim::Rng rng(seed);
  std::uint32_t cursor = 0x010000;  // /24 index of 1.0.0.0
  auto slash24 = [](std::uint32_t index) {
    return netsim::Prefix::Of(netsim::Ipv4Address(index << 8), 24);
  };
  while (map.classified.size() < entries) {
    cursor += static_cast<std::uint32_t>(rng.NextBelow(25));
    if (rng.NextBool(0.2)) {
      map.classified.push_back(
          {slash24(cursor++), Token(core::Classification::kTooFewActive)});
      continue;
    }
    cluster::AggregateBlock block;
    for (std::uint64_t m = 1 + rng.NextBelow(8); m > 0; --m, ++cursor) {
      block.member_24s.push_back(slash24(cursor));
      map.classified.push_back(
          {slash24(cursor), Token(core::Classification::kSameLastHop)});
    }
    block.last_hops.emplace_back(static_cast<std::uint32_t>(rng.Next()));
    map.blocks.push_back(std::move(block));
  }
  std::reverse(map.blocks.begin(), map.blocks.end());
  std::reverse(map.classified.begin(), map.classified.end());
  return map;
}

TEST(SnapshotEntries, CensusSizedCompileMatchesTheOracleByteForByte) {
  const BlockMap census = ReversedCensus(3'370'000, 17);
  std::vector<std::byte> bytes =
      CompileSnapshotV2(census.blocks, census.classified, 3);
  ExpectSameEntries(
      test::CompiledEntries(bytes),
      test::OracleSnapshotEntries(census.blocks, census.classified), "census");
  std::string error;
  const std::optional<Snapshot> loaded =
      Snapshot::FromBuffer(std::move(bytes), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->block_count(), census.blocks.size());
  EXPECT_EQ(loaded->hop_count(), census.blocks.size());
}

TEST(SnapshotEntries, CensusShapedMapsInCanonicalAndShuffledOrder) {
  BlockMap map = ReversedCensus(200'000, 23);
  cluster::SortCanonical(map.blocks);
  std::reverse(map.classified.begin(), map.classified.end());
  ExpectCompileMatchesOracle(map.blocks, map.classified, "canonical");
  netsim::Rng rng(23);
  std::shuffle(map.blocks.begin(), map.blocks.end(), rng);
  std::shuffle(map.classified.begin(), map.classified.end(), rng);
  for (cluster::AggregateBlock& block : map.blocks) {
    std::shuffle(block.member_24s.begin(), block.member_24s.end(), rng);
  }
  ExpectCompileMatchesOracle(map.blocks, map.classified, "shuffled");
}

}  // namespace
}  // namespace hobbit::serve
