#include "probing/zmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "common/popcount.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "test_util.h"

namespace hobbit::probing {
namespace {

using test::ZmapBlockOf;

TEST(Slash26Criterion, RequiresEveryQuarter) {
  const auto meets = [](std::initializer_list<int> octets) {
    return MeetsSlash26Criterion(ZmapBlockOf("20.0.0.0/24", octets));
  };
  EXPECT_TRUE(meets({1, 65, 129, 193}));
  EXPECT_FALSE(meets({1, 2, 3, 65, 129}));  // missing the fourth /26
  EXPECT_FALSE(meets({}));
  EXPECT_TRUE(meets({0, 64, 128, 192}));  // boundary octets
  EXPECT_TRUE(meets({63, 127, 191, 255}));
}

TEST(ZmapBlock, OctetsIterateAscendingOverTheBitmap) {
  ZmapBlock block = ZmapBlockOf("20.0.0.0/24", {255, 0, 64, 63, 130, 1, 200});
  std::vector<int> octets;
  for (std::uint8_t octet : block.ActiveOctets()) octets.push_back(octet);
  EXPECT_EQ(octets, (std::vector<int>{0, 1, 63, 64, 130, 200, 255}));
  EXPECT_EQ(block.ActiveCount(), 7);
  EXPECT_FALSE(block.empty());
  for (int octet = 0; octet < 256; ++octet) {
    const bool listed =
        std::find(octets.begin(), octets.end(), octet) != octets.end();
    EXPECT_EQ(block.IsActive(static_cast<std::uint8_t>(octet)), listed);
  }

  ZmapBlock none = ZmapBlockOf("20.0.0.0/24", {});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.ActiveCount(), 0);
  EXPECT_TRUE(none.ActiveOctets().begin() == none.ActiveOctets().end());

  int expected = 0;
  const ZmapBlock full = test::FullBlock("20.0.0.0/24");
  for (std::uint8_t octet : full.ActiveOctets()) {
    EXPECT_EQ(octet, expected++);
  }
  EXPECT_EQ(expected, 256);
  EXPECT_EQ(full.ActiveCount(), 256);
}

int NaivePopcount(std::uint64_t x) {
  int count = 0;
  for (int bit = 0; bit < 64; ++bit) count += static_cast<int>((x >> bit) & 1);
  return count;
}

TEST(Popcount, MatchesANaiveBitLoop) {
  EXPECT_EQ(common::Popcount(0), 0);
  EXPECT_EQ(common::Popcount(~std::uint64_t{0}), 64);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t one = std::uint64_t{1} << bit;
    EXPECT_EQ(common::Popcount(one), 1) << bit;
    EXPECT_EQ(common::Popcount(~one), 63) << bit;
    EXPECT_EQ(common::Popcount(one - 1), bit) << bit;
  }
  netsim::Rng rng(83);
  for (int i = 0; i < 10000; ++i) {
    // Sparse and dense words as well as uniform ones.
    std::uint64_t word = rng.Next();
    if (i % 3 == 1) word &= rng.Next() & rng.Next();
    if (i % 3 == 2) word |= rng.Next() | rng.Next();
    ASSERT_EQ(common::Popcount(word), NaivePopcount(word)) << word;
  }
}

TEST(ZmapScan, FindsActiveHostsInTinyInternet) {
  netsim::Internet internet =
      netsim::BuildInternet(netsim::TinyConfig(3));
  ZmapSnapshot snapshot = RunZmapScan(internet, internet.study_24s);
  EXPECT_GT(snapshot.blocks.size(), 0u);
  EXPECT_GT(snapshot.ActiveCount(), 0u);
  // Every reported /24 must be part of the universe.
  for (const ZmapBlock& block : snapshot.blocks) {
    EXPECT_NE(internet.TruthOf(block.prefix), nullptr)
        << block.prefix.ToString();
  }
  // Only /24s with a responder are reported, in target (prefix) order.
  for (std::size_t i = 0; i < snapshot.blocks.size(); ++i) {
    EXPECT_FALSE(snapshot.blocks[i].empty());
    if (i > 0) {
      EXPECT_LT(snapshot.blocks[i - 1].prefix, snapshot.blocks[i].prefix);
    }
  }
}

TEST(ZmapScan, SnapshotMatchesHostModel) {
  netsim::Internet internet =
      netsim::BuildInternet(netsim::TinyConfig(3));
  ZmapSnapshot snapshot = RunZmapScan(internet, internet.study_24s);
  const netsim::HostModel& hosts = internet.simulator->host_model();
  const ZmapBlock& block = snapshot.blocks.front();
  for (std::uint32_t octet = 0; octet < 256; ++octet) {
    netsim::Ipv4Address address(block.prefix.base().value() + octet);
    netsim::SubnetId subnet_id = internet.topology.FindSubnet(address);
    ASSERT_NE(subnet_id, netsim::kNoSubnet);
    EXPECT_EQ(block.IsActive(static_cast<std::uint8_t>(octet)),
              hosts.ActiveInSnapshot(
                          address, internet.topology.subnet(subnet_id)));
  }
}

TEST(ZmapScan, SelectStudyBlocksFiltersByCriterion) {
  netsim::Internet internet =
      netsim::BuildInternet(netsim::TinyConfig(3));
  ZmapSnapshot snapshot = RunZmapScan(internet, internet.study_24s);
  auto study = SelectStudyBlocks(snapshot);
  EXPECT_LT(study.size(), snapshot.blocks.size());
  for (const ZmapBlock& block : study) {
    EXPECT_TRUE(MeetsSlash26Criterion(block));
  }
}

TEST(ZmapScan, DeterministicAcrossRuns) {
  netsim::Internet internet =
      netsim::BuildInternet(netsim::TinyConfig(3));
  ZmapSnapshot a = RunZmapScan(internet, internet.study_24s);
  ZmapSnapshot b = RunZmapScan(internet, internet.study_24s);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  EXPECT_EQ(a.ActiveCount(), b.ActiveCount());
}

}  // namespace
}  // namespace hobbit::probing
