#include "netsim/internet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "walk_oracle.h"

namespace hobbit::netsim {
namespace {

class InternetInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Internet internet_ = BuildInternet(TinyConfig(GetParam()));
};

TEST_P(InternetInvariants, UniverseSortedAndUnique) {
  const auto& universe = internet_.study_24s;
  ASSERT_FALSE(universe.empty());
  for (std::size_t i = 1; i < universe.size(); ++i) {
    EXPECT_LT(universe[i - 1], universe[i]);
  }
  EXPECT_EQ(universe.size(), internet_.truth.size());
}

TEST_P(InternetInvariants, EveryAddressOfEvery24HasASubnet) {
  for (const Prefix& slash24 : internet_.study_24s) {
    for (std::uint32_t a = slash24.base().value();
         a <= slash24.Last().value(); a += 37) {  // stride for speed
      EXPECT_NE(internet_.topology.FindSubnet(Ipv4Address(a)), kNoSubnet)
          << Ipv4Address(a).ToString();
    }
  }
}

TEST_P(InternetInvariants, EveryDestinationIsRoutable) {
  RouteMemo memo;
  for (const Prefix& slash24 : internet_.study_24s) {
    Ipv4Address probe(slash24.base().value() + 99);
    auto path = internet_.simulator->ResolvePath(probe, 1, 0, memo);
    EXPECT_FALSE(path.empty()) << slash24.ToString();
    if (!path.empty()) {
      EXPECT_GE(path.size(), 5u);
      EXPECT_LT(path.size(), 20u);
    }
  }
}

TEST_P(InternetInvariants, GroundTruthLastHopIsAGatewayOfTheSubnet) {
  for (std::size_t i = 0; i < internet_.study_24s.size(); i += 7) {
    const Prefix& slash24 = internet_.study_24s[i];
    Ipv4Address dst(slash24.base().value() + 42);
    SubnetId subnet_id = internet_.topology.FindSubnet(dst);
    ASSERT_NE(subnet_id, kNoSubnet);
    const Subnet& subnet = internet_.topology.subnet(subnet_id);
    RouterId last = test::OracleLastHop(*internet_.simulator, dst, 0);
    ASSERT_NE(last, kNoRouter);
    EXPECT_NE(std::find(subnet.gateways.begin(), subnet.gateways.end(),
                        last),
              subnet.gateways.end());
  }
}

TEST_P(InternetInvariants, TruthHeterogeneousMatchesSubnetStructure) {
  for (std::size_t i = 0; i < internet_.study_24s.size(); ++i) {
    const Prefix& slash24 = internet_.study_24s[i];
    // Count distinct subnets and gateway sets covering this /24.
    std::set<SubnetId> subnets;
    for (std::uint32_t a = slash24.base().value();
         a <= slash24.Last().value(); a += 16) {
      SubnetId id = internet_.topology.FindSubnet(Ipv4Address(a));
      if (id != kNoSubnet) subnets.insert(id);
    }
    std::set<std::vector<RouterId>> gateway_sets;
    for (SubnetId id : subnets) {
      gateway_sets.insert(internet_.topology.subnet(id).gateways);
    }
    bool truth_het = internet_.truth[i].heterogeneous;
    EXPECT_EQ(truth_het, gateway_sets.size() > 1) << slash24.ToString();
  }
}

TEST_P(InternetInvariants, RegistryKnowsEveryStudyBlock) {
  for (std::size_t i = 0; i < internet_.study_24s.size(); i += 3) {
    const Prefix& slash24 = internet_.study_24s[i];
    auto as_index = internet_.registry.AsOf(slash24.base());
    ASSERT_TRUE(as_index.has_value()) << slash24.ToString();
    EXPECT_EQ(*as_index, internet_.truth[i].as_index);
  }
}

TEST_P(InternetInvariants, SameSeedSameWorld) {
  Internet other = BuildInternet(TinyConfig(GetParam()));
  ASSERT_EQ(other.study_24s.size(), internet_.study_24s.size());
  EXPECT_TRUE(std::equal(other.study_24s.begin(), other.study_24s.end(),
                         internet_.study_24s.begin()));
  EXPECT_EQ(other.topology.router_count(),
            internet_.topology.router_count());
  EXPECT_EQ(other.topology.subnet_count(),
            internet_.topology.subnet_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternetInvariants,
                         ::testing::Values(1, 7, 42));

TEST(InternetGenerator, DifferentSeedsDifferentWorlds) {
  Internet a = BuildInternet(TinyConfig(1));
  Internet b = BuildInternet(TinyConfig(2));
  EXPECT_NE(a.study_24s, b.study_24s);
}

TEST(InternetGenerator, DefaultProfilesContainThePaperCast) {
  auto profiles = DefaultProfiles();
  std::set<std::uint32_t> asns;
  for (const auto& p : profiles) asns.insert(p.as.asn);
  // Table 5 giants.
  for (std::uint32_t asn : {18779u, 1257u, 16509u, 2914u, 32392u, 4713u,
                            9506u, 17676u, 26496u, 22394u, 22773u}) {
    EXPECT_TRUE(asns.count(asn)) << "missing giant AS" << asn;
  }
  // Table 3 splitters.
  for (std::uint32_t asn : {4766u, 9318u, 15557u, 3292u, 4788u, 9158u,
                            36352u, 28751u, 20751u, 35632u}) {
    EXPECT_TRUE(asns.count(asn)) << "missing splitter AS" << asn;
  }
}

TEST(InternetGenerator, PinnedPopSizesProduceTruthBlocks) {
  InternetConfig config = TinyConfig(5);
  Internet internet = BuildInternet(config);
  // Profile "TestHost B" pins pop sizes {60, 20}: two ground-truth blocks
  // of those sizes must exist.
  std::map<std::uint64_t, int> truth_sizes;
  for (const TruthRecord& record : internet.truth) {
    if (!record.heterogeneous) ++truth_sizes[record.truth_block];
  }
  std::multiset<int> sizes;
  for (auto& [block, n] : truth_sizes) sizes.insert(n);
  EXPECT_TRUE(sizes.count(60)) << "pinned PoP of 60 /24s missing";
  EXPECT_TRUE(sizes.count(20)) << "pinned PoP of 20 /24s missing";
}

TEST(InternetGenerator, RdnsSchemeOfResolvesThroughSubnets) {
  Internet internet = BuildInternet(TinyConfig(5));
  // TestCell C uses the tele2 scheme; find one of its /24s.
  bool found = false;
  for (std::size_t i = 0; i < internet.study_24s.size(); ++i) {
    std::uint32_t scheme =
        internet.RdnsSchemeOf(internet.study_24s[i].base());
    if (scheme == kRdnsTele2Cellular) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(internet.RdnsSchemeOf(Ipv4Address::FromOctets(9, 9, 9, 9)),
            kRdnsNone + 0u);
}

TEST(InternetGenerator, ScaleShrinksTheWorld) {
  InternetConfig small = TinyConfig(9);
  small.scale = 0.5;
  InternetConfig full = TinyConfig(9);
  Internet a = BuildInternet(small);
  Internet b = BuildInternet(full);
  EXPECT_LT(a.study_24s.size(), b.study_24s.size());
  EXPECT_GT(a.study_24s.size(), b.study_24s.size() / 4);
}

TEST(InternetGenerator, TruthLookupByPrefix) {
  Internet internet = BuildInternet(TinyConfig(5));
  const Prefix& known = internet.study_24s[internet.study_24s.size() / 2];
  const TruthRecord* record = internet.TruthOf(known);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->prefix, known);
  EXPECT_EQ(internet.TruthOf(*Prefix::Parse("9.9.9.0/24")), nullptr);
}

}  // namespace
}  // namespace hobbit::netsim
