// The HSPT patch layer (serve/delta.h): the byte-identity contract —
// ApplyPatch(base, CompileDelta(base, S)) == CompileSnapshotV2(S) for any
// state transition — plus the strict applier's rejection paths and the
// store's PublishPatch provenance.
#include "serve/delta.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "serve/service.h"
#include "serve/store.h"
#include "serve/wire.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using test::Pfx;

cluster::AggregateBlock Block(std::initializer_list<const char*> members,
                              std::initializer_list<const char*> hops) {
  cluster::AggregateBlock block;
  for (const char* m : members) block.member_24s.push_back(Pfx(m));
  for (const char* h : hops) block.last_hops.push_back(Addr(h));
  return block;
}

/// One serving state: blocks + classifications, in the compiler's terms.
struct State {
  std::vector<cluster::AggregateBlock> blocks;
  std::vector<ClassifiedPrefix> classified;
};

State StateA() {
  State s;
  s.blocks.push_back(Block({"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"},
                           {"192.168.0.1", "192.168.0.2"}));
  s.blocks.push_back(Block({"10.1.0.0/24"}, {"192.168.1.1"}));
  s.classified = {{Pfx("10.0.0.0/24"), 2},
                  {Pfx("10.0.1.0/24"), 2},
                  {Pfx("10.9.0.0/24"), 0}};
  return s;
}

/// A realistic evolution of StateA: one /24 re-homed, one block gone,
/// a new block and new classifications arrived, one /24 removed.
State StateB() {
  State s;
  s.blocks.push_back(
      Block({"10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/24"},
            {"192.168.0.1", "192.168.0.2"}));
  s.blocks.push_back(Block({"10.2.0.0/24", "10.2.1.0/24"}, {"192.168.2.1"}));
  s.classified = {{Pfx("10.0.0.0/24"), 2},
                  {Pfx("10.0.1.0/24"), 3},
                  {Pfx("10.2.0.0/24"), 2}};
  return s;
}

Snapshot Load(const std::vector<std::byte>& bytes) {
  std::string error;
  auto snapshot = Snapshot::FromBuffer(bytes, &error);
  EXPECT_TRUE(snapshot.has_value()) << error;
  return *std::move(snapshot);
}

/// Recomputes the payload checksum after test-side tampering, so the
/// applier's *semantic* checks are reached (not just the checksum).
void FixChecksum(std::vector<std::byte>& patch) {
  const std::uint64_t checksum = Fnv1a64(
      std::span<const std::byte>(patch.data() + kPatchHeaderBytes,
                                 patch.size() - kPatchHeaderBytes));
  std::vector<std::byte> fixed;
  wire::AppendU64(fixed, checksum);
  std::memcpy(patch.data() + 56, fixed.data(), 8);
}

TEST(Delta, PatchedSnapshotIsByteIdenticalToFullCompile) {
  const State a = StateA();
  const State b = StateB();
  Snapshot base = Load(CompileSnapshotV2(a.blocks, a.classified, 1));

  DeltaStats stats;
  std::vector<std::byte> patch =
      CompileDelta(base, b.blocks, b.classified, 2, &stats);
  EXPECT_GT(stats.upserts, 0u);
  EXPECT_GT(stats.removes, 0u);

  std::string error;
  auto patched = ApplyPatch(base, patch, &error);
  ASSERT_TRUE(patched.has_value()) << error;
  EXPECT_EQ(*patched, CompileSnapshotV2(b.blocks, b.classified, 2));
}

TEST(Delta, ChainOfPatchesTracksChainOfFullCompiles) {
  // A -> B -> A -> B: each hop patched from the previous, each result
  // byte-identical to the full compile of that state at that epoch.
  const State states[2] = {StateA(), StateB()};
  Snapshot current =
      Load(CompileSnapshotV2(states[0].blocks, states[0].classified, 1));
  for (std::uint64_t step = 1; step <= 3; ++step) {
    const State& next = states[step % 2];
    std::vector<std::byte> patch =
        CompileDelta(current, next.blocks, next.classified, step + 1);
    auto patched = ApplyPatch(current, patch);
    ASSERT_TRUE(patched.has_value());
    EXPECT_EQ(*patched,
              CompileSnapshotV2(next.blocks, next.classified, step + 1));
    current = Load(*patched);
  }
}

TEST(Delta, EmptyDiffPatchesOnlyTheEpoch) {
  const State a = StateA();
  Snapshot base = Load(CompileSnapshotV2(a.blocks, a.classified, 5));
  DeltaStats stats;
  std::vector<std::byte> patch =
      CompileDelta(base, a.blocks, a.classified, 6, &stats);
  EXPECT_EQ(stats.upserts, 0u);
  EXPECT_EQ(stats.removes, 0u);
  EXPECT_EQ(stats.unchanged, base.entry_count());
  auto patched = ApplyPatch(base, patch);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(*patched, CompileSnapshotV2(a.blocks, a.classified, 6));
}

TEST(Delta, SmallChangeMakesAPatchSmallerThanTheSnapshot) {
  // Many entries, one classification flip: the patch must not scale
  // with the world.
  State big;
  big.blocks.push_back(Block({}, {"192.168.0.1"}));
  for (unsigned i = 0; i < 400; ++i) {
    big.blocks[0].member_24s.push_back(netsim::Prefix::Of(
        netsim::Ipv4Address(0x0A000000u + 256u * i), 24));
    big.classified.push_back(
        {netsim::Prefix::Of(netsim::Ipv4Address(0x0A000000u + 256u * i), 24),
         2});
  }
  Snapshot base = Load(CompileSnapshotV2(big.blocks, big.classified, 1));
  big.classified[17].class_token = 3;
  DeltaStats stats;
  std::vector<std::byte> patch =
      CompileDelta(base, big.blocks, big.classified, 2, &stats);
  EXPECT_EQ(stats.upserts, 1u);
  EXPECT_EQ(stats.removes, 0u);
  EXPECT_LT(patch.size(), base.buffer_bytes() / 4);
  auto patched = ApplyPatch(base, patch);
  ASSERT_TRUE(patched.has_value());
  EXPECT_EQ(*patched, CompileSnapshotV2(big.blocks, big.classified, 2));
}

// ------------------------------------------------------------ rejection

class DeltaRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = StateA();
    b_ = StateB();
    base_ = Load(CompileSnapshotV2(a_.blocks, a_.classified, 1));
    patch_ = CompileDelta(base_, b_.blocks, b_.classified, 2);
  }

  void ExpectRejected(const std::vector<std::byte>& patch,
                      const char* what) {
    std::string error;
    EXPECT_FALSE(ApplyPatch(base_, patch, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  }

  State a_, b_;
  Snapshot base_;
  std::vector<std::byte> patch_;
};

TEST_F(DeltaRejection, BadMagic) {
  auto bad = patch_;
  bad[0] = std::byte{'X'};
  ExpectRejected(bad, "magic");
}

TEST_F(DeltaRejection, UnsupportedVersion) {
  auto bad = patch_;
  bad[4] = std::byte{9};
  ExpectRejected(bad, "version");
}

TEST_F(DeltaRejection, Truncation) {
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{63}, patch_.size() - 1}) {
    std::vector<std::byte> bad(patch_.begin(),
                               patch_.begin() + static_cast<long>(keep));
    ExpectRejected(bad, "truncated");
  }
  auto trailing = patch_;
  trailing.push_back(std::byte{0});
  ExpectRejected(trailing, "trailing");
}

TEST_F(DeltaRejection, PayloadCorruptionTripsChecksum) {
  auto bad = patch_;
  bad[bad.size() - 1] ^= std::byte{0xFF};
  ExpectRejected(bad, "checksum");
}

TEST_F(DeltaRejection, WrongBaseSnapshot) {
  Snapshot other = Load(CompileSnapshotV2(b_.blocks, b_.classified, 9));
  std::string error;
  EXPECT_FALSE(ApplyPatch(other, patch_, &error).has_value());
  EXPECT_NE(error.find("different base"), std::string::npos) << error;
}

TEST_F(DeltaRejection, UnsortedUpsertKeys) {
  // Swap the first two upsert keys in place, then re-checksum so the
  // ordering check itself must fire.
  const std::uint32_t upserts = wire::ReadU32(patch_.data() + 12);
  ASSERT_GE(upserts, 2u);
  auto bad = patch_;
  std::byte* keys = bad.data() + kPatchHeaderBytes;
  std::byte tmp[4];
  std::memcpy(tmp, keys, 4);
  std::memcpy(keys, keys + 4, 4);
  std::memcpy(keys + 4, tmp, 4);
  FixChecksum(bad);
  std::string error;
  EXPECT_FALSE(ApplyPatch(base_, bad, &error).has_value());
  EXPECT_NE(error.find("ascending"), std::string::npos) << error;
}

TEST_F(DeltaRejection, RemoveOfNonexistentKey) {
  const std::uint32_t upserts = wire::ReadU32(patch_.data() + 12);
  const std::uint32_t removes = wire::ReadU32(patch_.data() + 16);
  ASSERT_GE(removes, 1u);
  auto bad = patch_;
  // Overwrite the LAST remove key (keeps the section sorted) with a /24
  // base far above anything in the tiny state.
  const std::size_t remove_offset = kPatchHeaderBytes + upserts * 9 +
                                    wire::PadTo4(upserts) +
                                    (removes - 1) * std::size_t{4};
  std::vector<std::byte> key;
  wire::AppendU32(key, 0xDEADBE00u);
  std::memcpy(bad.data() + remove_offset, key.data(), 4);
  FixChecksum(bad);
  std::string error;
  EXPECT_FALSE(ApplyPatch(base_, bad, &error).has_value());
  EXPECT_NE(error.find("not present"), std::string::npos) << error;
}

// ---------------------------------------------------------------- store

TEST(StorePublish, PatchPublishAndProvenance) {
  const State a = StateA();
  const State b = StateB();
  SnapshotStore store;
  EXPECT_EQ(store.last_publish_kind(), PublishKind::kNone);

  // A patch needs a base.
  Snapshot base = Load(CompileSnapshotV2(a.blocks, a.classified, 1));
  std::vector<std::byte> early =
      CompileDelta(base, b.blocks, b.classified, 2);
  std::string error;
  EXPECT_FALSE(store.PublishPatch(early, &error));
  EXPECT_EQ(store.failed_reloads(), 1u);

  store.Swap(std::make_shared<const Snapshot>(Load(
      CompileSnapshotV2(a.blocks, a.classified, 1))));
  EXPECT_EQ(store.last_publish_kind(), PublishKind::kFull);
  EXPECT_EQ(store.last_delta_entries(), 0u);

  DeltaStats stats;
  std::vector<std::byte> patch = CompileDelta(
      *store.Current(), b.blocks, b.classified, 2, &stats);
  ASSERT_TRUE(store.PublishPatch(patch, &error)) << error;
  EXPECT_EQ(store.last_publish_kind(), PublishKind::kDelta);
  EXPECT_EQ(store.last_delta_entries(), stats.upserts + stats.removes);
  EXPECT_EQ(store.Current()->epoch(), 2u);
  EXPECT_EQ(store.generation(), 2u);

  // Served bytes == full compile of the same state.
  std::span<const std::byte> served = store.Current()->bytes();
  std::vector<std::byte> reference =
      CompileSnapshotV2(b.blocks, b.classified, 2);
  EXPECT_TRUE(std::equal(served.begin(), served.end(), reference.begin(),
                         reference.end()));
}

TEST(StorePublish, StatsLineCarriesPublishProvenance) {
  const State a = StateA();
  const State b = StateB();
  SnapshotStore store;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  auto stats_reply = [&] {
    std::istringstream in("STATS\n");
    std::ostringstream out;
    service.Run(in, out);
    return out.str();
  };
  EXPECT_NE(stats_reply().find("publish=none delta_entries=0"),
            std::string::npos);

  store.Swap(std::make_shared<const Snapshot>(
      Load(CompileSnapshotV2(a.blocks, a.classified, 1))));
  EXPECT_NE(stats_reply().find("publish=full delta_entries=0"),
            std::string::npos);

  DeltaStats delta;
  std::vector<std::byte> patch =
      CompileDelta(*store.Current(), b.blocks, b.classified, 2, &delta);
  ASSERT_TRUE(store.PublishPatch(patch));
  const std::string reply = stats_reply();
  EXPECT_NE(reply.find("publish=delta delta_entries=" +
                       std::to_string(delta.upserts + delta.removes)),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("epoch=2"), std::string::npos) << reply;
}

}  // namespace
}  // namespace hobbit::serve
