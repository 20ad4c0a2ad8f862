#include "analysis/cellular.h"

#include <gtest/gtest.h>

#include "netsim/rdns.h"
#include "test_util.h"

namespace hobbit::analysis {
namespace {

TEST(GeneralizeName, CollapsesDigitRuns) {
  EXPECT_EQ(GeneralizeName("m3-10-0-0-1.cust.tele2.net"),
            "m#-#-#-#-#.cust.tele#.net");
  EXPECT_EQ(GeneralizeName("ec2-52-1-2-3.eu-west-1.compute.amazonaws.com"),
            "ec#-#-#-#-#.eu-west-#.compute.amazonaws.com");
  EXPECT_EQ(GeneralizeName("nodigits.example"), "nodigits.example");
  EXPECT_EQ(GeneralizeName(""), "");
}

TEST(GeneralizeName, SameSchemeSamePattern) {
  auto a = netsim::RdnsName(netsim::kRdnsOcnCellular,
                            netsim::Ipv4Address(0x14000001));
  auto b = netsim::RdnsName(netsim::kRdnsOcnCellular,
                            netsim::Ipv4Address(0x22334455));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(GeneralizeName(*a), GeneralizeName(*b));
}

TEST(NameMatchesPattern, MatchesOwnGeneralization) {
  std::string name = "cpe-1-2-3-4.nyc.res.rr.com";
  EXPECT_TRUE(NameMatchesPattern(GeneralizeName(name), name));
  EXPECT_FALSE(NameMatchesPattern(GeneralizeName(name),
                                  "cpe-1-2-3-4.austin.res.rr.com"));
}

TEST(ExtractDominantPattern, FindsMajorityScheme) {
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < 95; ++i) {
    names.push_back(*netsim::RdnsName(netsim::kRdnsOcnCellular,
                                      netsim::Ipv4Address(1000 + i)));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    names.push_back(*netsim::RdnsName(netsim::kRdnsGenericIsp,
                                      netsim::Ipv4Address(2000 + i)));
  }
  PatternExtraction extraction = ExtractDominantPattern(names);
  EXPECT_EQ(extraction.names_seen, 100u);
  EXPECT_NEAR(extraction.coverage, 0.95, 0.001);
  EXPECT_NE(extraction.dominant_pattern.find("omed"), std::string::npos);
  EXPECT_EQ(extraction.distinct_patterns, 2u);
}

TEST(ExtractDominantPattern, EmptyInput) {
  PatternExtraction extraction = ExtractDominantPattern({});
  EXPECT_EQ(extraction.names_seen, 0u);
  EXPECT_DOUBLE_EQ(extraction.coverage, 0.0);
}

class CellularSignals : public ::testing::Test {
 protected:
  static netsim::Internet& Net() {
    static netsim::Internet internet =
        netsim::BuildInternet(netsim::TinyConfig(77));
    return internet;
  }

  /// Member /24s of the largest ground-truth block of a given kind.
  static cluster::AggregateBlock BlockOfKind(netsim::SubnetKind kind) {
    cluster::AggregateBlock block;
    for (const netsim::Prefix& slash24 : Net().study_24s) {
      netsim::SubnetId id = Net().topology.FindSubnet(slash24.base());
      if (id == netsim::kNoSubnet) continue;
      if (Net().topology.subnet(id).kind == kind) {
        block.member_24s.push_back(slash24);
      }
    }
    return block;
  }
};

TEST_F(CellularSignals, CellularBlockShowsFirstProbeDelay) {
  cluster::AggregateBlock cellular =
      BlockOfKind(netsim::SubnetKind::kCellular);
  ASSERT_GE(cellular.member_24s.size(), 10u);
  netsim::RouteMemo memo;
  std::vector<double> deltas =
      FirstRttDeltas(Net(), memo, cellular, 24, 10, 1);
  ASSERT_GT(deltas.size(), 50u);
  // Paper Fig 6: a large share of cellular addresses show > 0.5 s extra
  // first-probe delay.
  std::size_t above_half_second = 0;
  for (double d : deltas) above_half_second += d > 0.5;
  EXPECT_GT(static_cast<double>(above_half_second) / deltas.size(), 0.3);
}

TEST_F(CellularSignals, DatacenterBlockShowsNoFirstProbeDelay) {
  cluster::AggregateBlock datacenter =
      BlockOfKind(netsim::SubnetKind::kDatacenter);
  ASSERT_GE(datacenter.member_24s.size(), 10u);
  netsim::RouteMemo memo;
  std::vector<double> deltas =
      FirstRttDeltas(Net(), memo, datacenter, 24, 10, 1);
  ASSERT_GT(deltas.size(), 50u);
  std::size_t above_half_second = 0;
  for (double d : deltas) above_half_second += d > 0.5;
  EXPECT_LT(static_cast<double>(above_half_second) / deltas.size(), 0.02);
}

TEST_F(CellularSignals, CollectRdnsNamesFindsCellularScheme) {
  cluster::AggregateBlock cellular =
      BlockOfKind(netsim::SubnetKind::kCellular);
  std::vector<std::string> names = CollectRdnsNames(Net(), cellular, 200, 3);
  ASSERT_GT(names.size(), 20u);
  std::size_t tele2 = 0;
  for (const std::string& name : names) {
    tele2 += netsim::MatchesTele2CellularRule(name);
  }
  EXPECT_EQ(tele2, names.size())
      << "TinyConfig's cellular org uses the tele2 scheme exclusively";
}

}  // namespace
}  // namespace hobbit::analysis
