#include "hobbit/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "netsim/rng.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

using test::Addr;

AddressObservation Obs(const char* address, const char* router) {
  return {Addr(address), {Addr(router)}};
}

TEST(GroupByLastHop, GroupsAndRanges) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.125", "10.0.0.1"),
      Obs("20.0.0.129", "10.0.0.2"), Obs("20.0.0.254", "10.0.0.2")};
  auto groups = GroupByLastHop(observations);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].router, Addr("10.0.0.1"));
  EXPECT_EQ(groups[0].min, Addr("20.0.0.2"));
  EXPECT_EQ(groups[0].max, Addr("20.0.0.125"));
  EXPECT_EQ(groups[1].min, Addr("20.0.0.129"));
}

TEST(GroupByLastHop, MultiLastHopAddressJoinsBothGroups) {
  std::vector<AddressObservation> observations = {
      {Addr("20.0.0.1"), {Addr("10.0.0.1"), Addr("10.0.0.2")}},
      Obs("20.0.0.2", "10.0.0.1")};
  auto groups = GroupByLastHop(observations);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].member_count, 2u);
  EXPECT_EQ(groups[1].member_count, 1u);
}

TEST(GroupByLastHop, SkipsEmptyObservations) {
  std::vector<AddressObservation> observations = {
      {Addr("20.0.0.1"), {}}, Obs("20.0.0.2", "10.0.0.1")};
  EXPECT_EQ(GroupByLastHop(observations).size(), 1u);
}

// Figure 2's three cases.
TEST(Hierarchy, DisjointIsHierarchical) {
  std::vector<AddressGroup> groups(2);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.2"), Addr("20.0.0.126"), 2};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.130"), Addr("20.0.0.237"), 2};
  EXPECT_TRUE(GroupsAreHierarchical(groups));
}

TEST(Hierarchy, InclusiveIsHierarchical) {
  std::vector<AddressGroup> groups(2);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.2"), Addr("20.0.0.237"), 0};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.126"), Addr("20.0.0.130"), 0};
  EXPECT_TRUE(GroupsAreHierarchical(groups));
}

TEST(Hierarchy, InterleavedIsNonHierarchical) {
  std::vector<AddressGroup> groups(3);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.2"), Addr("20.0.0.130"), 0};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.126"), Addr("20.0.0.237"), 0};
  groups[2] = {Addr("10.0.0.3"), Addr("20.0.0.50"), Addr("20.0.0.60"), 0};
  EXPECT_FALSE(GroupsAreHierarchical(groups));
}

TEST(Hierarchy, SharedEndpointIsPartialOverlap) {
  std::vector<AddressGroup> groups(2);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.1"), Addr("20.0.0.5"), 0};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.5"), Addr("20.0.0.9"), 0};
  EXPECT_FALSE(GroupsAreHierarchical(groups));
}

TEST(Hierarchy, SingleGroupVacuouslyHierarchical) {
  std::vector<AddressGroup> groups(1);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.1"), Addr("20.0.0.5"), 0};
  EXPECT_TRUE(GroupsAreHierarchical(groups));
}

TEST(Hierarchy, IdenticalRangesCountAsNested) {
  std::vector<AddressGroup> groups(2);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.1"), Addr("20.0.0.9"), 0};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.1"), Addr("20.0.0.9"), 0};
  EXPECT_TRUE(GroupsAreHierarchical(groups));
}

TEST(HobbitVerdict, SingleCommonLastHopIsHomogeneous) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.1", "10.0.0.1"), Obs("20.0.0.99", "10.0.0.1"),
      Obs("20.0.0.180", "10.0.0.1"), Obs("20.0.0.250", "10.0.0.1")};
  EXPECT_TRUE(HobbitSaysHomogeneous(observations));
}

TEST(HobbitVerdict, InterleavedLastHopsAreHomogeneous) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.1", "10.0.0.1"), Obs("20.0.0.2", "10.0.0.2"),
      Obs("20.0.0.3", "10.0.0.1"), Obs("20.0.0.4", "10.0.0.2")};
  EXPECT_TRUE(HobbitSaysHomogeneous(observations));
}

TEST(HobbitVerdict, CleanSplitIsNotHomogeneous) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.1", "10.0.0.1"), Obs("20.0.0.100", "10.0.0.1"),
      Obs("20.0.0.130", "10.0.0.2"), Obs("20.0.0.250", "10.0.0.2")};
  EXPECT_FALSE(HobbitSaysHomogeneous(observations));
}

TEST(HobbitVerdict, NoObservationsIsNotHomogeneous) {
  EXPECT_FALSE(HobbitSaysHomogeneous({}));
}

// The paper's §4.2 example: groups <X.Y.Z.2, X.Y.Z.125> and
// <X.Y.Z.129, X.Y.Z.254> are disjoint AND aligned -> very likely
// heterogeneous; with the second group <X.Y.Z.127, X.Y.Z.254> the
// alignment breaks.
TEST(AlignedDisjoint, PaperExamplePositive) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.125", "10.0.0.1"),
      Obs("20.0.0.129", "10.0.0.2"), Obs("20.0.0.254", "10.0.0.2")};
  auto groups = GroupByLastHop(observations);
  EXPECT_TRUE(IsAlignedDisjoint(groups));
}

TEST(AlignedDisjoint, PaperExampleNegative) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.125", "10.0.0.1"),
      Obs("20.0.0.127", "10.0.0.2"), Obs("20.0.0.254", "10.0.0.2")};
  auto groups = GroupByLastHop(observations);
  // Disjoint but NOT aligned: the second group's span (/24) would contain
  // the first group's members.
  EXPECT_FALSE(IsAlignedDisjoint(groups));
}

TEST(AlignedDisjoint, InclusiveGroupsAreNot) {
  std::vector<AddressGroup> groups(2);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.2"), Addr("20.0.0.237"), 0};
  groups[1] = {Addr("10.0.0.2"), Addr("20.0.0.126"), Addr("20.0.0.130"), 0};
  EXPECT_FALSE(IsAlignedDisjoint(groups));
}

TEST(AlignedDisjoint, SingletonGroupsAreNot) {
  // Four addresses, four distinct last hops: disjoint /32 "spans" carry
  // no evidence of route entries and must not be flagged.
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.90", "10.0.0.2"),
      Obs("20.0.0.150", "10.0.0.3"), Obs("20.0.0.230", "10.0.0.4")};
  auto groups = GroupByLastHop(observations);
  EXPECT_FALSE(IsAlignedDisjoint(groups));
}

TEST(AlignedDisjoint, SingleGroupIsNot) {
  std::vector<AddressGroup> groups(1);
  groups[0] = {Addr("10.0.0.1"), Addr("20.0.0.1"), Addr("20.0.0.250"), 0};
  EXPECT_FALSE(IsAlignedDisjoint(groups));
}

TEST(SubBlockComposition, TwoSlash25s) {
  std::vector<AddressObservation> observations = {
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.125", "10.0.0.1"),
      Obs("20.0.0.129", "10.0.0.2"), Obs("20.0.0.254", "10.0.0.2")};
  auto groups = GroupByLastHop(observations);
  EXPECT_EQ(SubBlockComposition(groups), (std::vector<int>{25, 25}));
}

TEST(SubBlockComposition, MixedLengths) {
  std::vector<AddressObservation> observations = {
      // /25-spanning group.
      Obs("20.0.0.2", "10.0.0.1"), Obs("20.0.0.125", "10.0.0.1"),
      // /26-spanning group.
      Obs("20.0.0.129", "10.0.0.2"), Obs("20.0.0.190", "10.0.0.2"),
      // /26-spanning group.
      Obs("20.0.0.193", "10.0.0.3"), Obs("20.0.0.254", "10.0.0.3")};
  auto groups = GroupByLastHop(observations);
  EXPECT_EQ(SubBlockComposition(groups), (std::vector<int>{25, 26, 26}));
}

// Property: GroupsAreHierarchical agrees with the O(n^2) pairwise
// definition on random range sets.
class HierarchyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchyProperty, MatchesPairwiseDefinition) {
  netsim::Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBelow(6));
    std::vector<AddressGroup> groups(static_cast<std::size_t>(n));
    for (auto& g : groups) {
      std::uint32_t a = static_cast<std::uint32_t>(rng.NextBelow(32));
      std::uint32_t b = static_cast<std::uint32_t>(rng.NextBelow(32));
      g.min = netsim::Ipv4Address(std::min(a, b));
      g.max = netsim::Ipv4Address(std::max(a, b));
    }
    bool want = true;
    for (int i = 0; i < n && want; ++i) {
      for (int j = i + 1; j < n && want; ++j) {
        const auto& gi = groups[static_cast<std::size_t>(i)];
        const auto& gj = groups[static_cast<std::size_t>(j)];
        bool disjoint = gi.max < gj.min || gj.max < gi.min;
        bool i_in_j = gj.min <= gi.min && gi.max <= gj.max;
        bool j_in_i = gi.min <= gj.min && gj.max <= gi.max;
        if (!disjoint && !i_in_j && !j_in_i) want = false;
      }
    }
    EXPECT_EQ(GroupsAreHierarchical(groups), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyProperty,
                         ::testing::Values(1, 2, 3, 42, 1000, 31337));

}  // namespace
}  // namespace hobbit::core
