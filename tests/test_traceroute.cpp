#include "probing/traceroute.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit::probing {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;

TEST(MdaProbeCount, PublishedTable) {
  EXPECT_EQ(MdaProbeCount(1), 6);
  EXPECT_EQ(MdaProbeCount(2), 11);
  EXPECT_EQ(MdaProbeCount(3), 16);
  EXPECT_EQ(MdaProbeCount(5), 27);
  EXPECT_EQ(MdaProbeCount(16), 96);
}

TEST(MdaProbeCount, ExtensionIsMonotone) {
  for (int k = 16; k < 40; ++k) {
    EXPECT_GT(MdaProbeCount(k + 1), MdaProbeCount(k)) << k;
  }
}

TEST(ParisTraceroute, FollowsGroundTruthPath) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  Route route =
      ParisTraceroute(*net.simulator, memo, Addr("20.0.1.9"), 3, serial);
  ASSERT_TRUE(route.reached_destination);
  ASSERT_EQ(route.hops.size(), 6u);
  auto truth = test::OracleWalk(*net.simulator, Addr("20.0.1.9"), 3, 0);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ASSERT_TRUE(route.hops[i].responsive);
    EXPECT_EQ(route.hops[i].address,
              net.topology.router(truth[i]).reply_address);
  }
  EXPECT_EQ(route.LastHop()->address,
            net.topology.router(net.gw1).reply_address);
}

TEST(ParisTraceroute, SilentLastHopIsWildcard) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  Route route =
      ParisTraceroute(*net.simulator, memo, Addr("20.0.3.9"), 3, serial);
  ASSERT_TRUE(route.reached_destination);
  ASSERT_EQ(route.hops.size(), 6u);
  EXPECT_FALSE(route.hops.back().responsive);
}

TEST(ParisTraceroute, DeadDestinationStopsAtGapLimit) {
  netsim::HostModelConfig cold;
  cold.snapshot_availability = 0.0;
  cold.probe_availability = 0.0;
  MiniNet net = BuildMiniNet(cold);
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  Route route =
      ParisTraceroute(*net.simulator, memo, Addr("20.0.1.9"), 3, serial);
  EXPECT_FALSE(route.reached_destination);
  // Trailing wildcards are trimmed; the responsive prefix remains.
  ASSERT_FALSE(route.hops.empty());
  EXPECT_TRUE(route.hops.back().responsive);
}

TEST(ParisTraceroute, FirstTtlSkipsEarlyHops) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  TracerouteOptions options;
  options.first_ttl = 5;
  Route route = ParisTraceroute(*net.simulator, memo, Addr("20.0.1.9"), 3,
                                serial, options);
  ASSERT_TRUE(route.reached_destination);
  ASSERT_EQ(route.hops.size(), 2u);  // hops 5 (agg) and 6 (gw1)
  EXPECT_EQ(route.hops.back().address,
            net.topology.router(net.gw1).reply_address);
}

TEST(RoutesEqualWithWildcards, WildcardsMatchAnything) {
  Route a;
  a.reached_destination = true;
  a.hops = {{true, Addr("1.1.1.1")}, {true, Addr("2.2.2.2")},
            {true, Addr("3.3.3.3")}};
  Route b = a;
  b.hops[1] = {};  // "*"
  Route c = a;
  c.hops[0] = {};
  EXPECT_TRUE(RoutesEqualWithWildcards(a, b));
  EXPECT_TRUE(RoutesEqualWithWildcards(a, c));
  EXPECT_TRUE(RoutesEqualWithWildcards(b, c));
  Route d = a;
  d.hops[1].address = Addr("9.9.9.9");
  EXPECT_FALSE(RoutesEqualWithWildcards(a, d));
  Route e = a;
  e.hops.push_back({true, Addr("4.4.4.4")});
  EXPECT_FALSE(RoutesEqualWithWildcards(a, e)) << "length must agree";
}

TEST(RouteSetsShareARoute, GenerousIdentity) {
  Route r1;
  r1.reached_destination = true;
  r1.hops = {{true, Addr("1.1.1.1")}};
  Route r2;
  r2.reached_destination = true;
  r2.hops = {{true, Addr("2.2.2.2")}};
  Route r3;
  r3.reached_destination = true;
  r3.hops = {{true, Addr("3.3.3.3")}};
  EXPECT_TRUE(RouteSetsShareARoute({r1, r2}, {r2, r3}));
  EXPECT_FALSE(RouteSetsShareARoute({r1}, {r3}));
}

TEST(EnumerateRoutes, FindsBothPerFlowPaths) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  std::vector<Route> routes =
      EnumerateRoutes(*net.simulator, memo, Addr("20.0.1.9"), serial);
  // m1 and m2 both appear; last hop always gw1.
  ASSERT_EQ(routes.size(), 2u);
  std::set<netsim::Ipv4Address> mids;
  for (const Route& route : routes) {
    ASSERT_EQ(route.hops.size(), 6u);
    mids.insert(route.hops[2].address);
    EXPECT_EQ(route.hops.back().address,
              net.topology.router(net.gw1).reply_address);
  }
  EXPECT_EQ(mids.size(), 2u);
}

TEST(EnumerateRoutes, PerDestinationDiversityIsInvisible) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  // One destination of the per-dest /24: every flow id takes the same
  // gateway, so MDA sees only the per-flow (m1/m2) diversity.
  std::vector<Route> routes =
      EnumerateRoutes(*net.simulator, memo, Addr("20.0.2.9"), serial);
  std::set<netsim::Ipv4Address> last_hops;
  for (const Route& route : routes) {
    last_hops.insert(route.hops.back().address);
  }
  EXPECT_EQ(last_hops.size(), 1u);
}

TEST(EnumerateHopInterfaces, FindsSingleGateway) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  HopInterfaces result = EnumerateHopInterfaces(
      *net.simulator, memo, Addr("20.0.1.9"), MiniNet::kHostHop - 1, serial);
  ASSERT_EQ(result.interfaces.size(), 1u);
  EXPECT_EQ(result.interfaces.front(),
            net.topology.router(net.gw1).reply_address);
  // The stopping rule: 6 consecutive probes with nothing new.
  EXPECT_GE(result.probes_sent, MdaProbeCount(1));
}

TEST(EnumerateHopInterfaces, SilentHopYieldsOnlyWildcards) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  HopInterfaces result = EnumerateHopInterfaces(
      *net.simulator, memo, Addr("20.0.3.9"), MiniNet::kHostHop - 1, serial);
  EXPECT_TRUE(result.interfaces.empty());
  EXPECT_GT(result.wildcard_probes, 0);
}

TEST(EnumerateHopInterfaces, MidPathPerFlowStage) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  HopInterfaces result = EnumerateHopInterfaces(*net.simulator, memo,
                                                Addr("20.0.1.9"), 3, serial);
  EXPECT_EQ(result.interfaces.size(), 2u);  // m1, m2
  EXPECT_GE(result.probes_sent, MdaProbeCount(2));
}

}  // namespace
}  // namespace hobbit::probing
