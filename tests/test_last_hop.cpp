#include "probing/last_hop.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit::probing {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;

TEST(InferDefaultTtl, PaperBuckets) {
  EXPECT_EQ(InferDefaultTtl(0), 64);
  EXPECT_EQ(InferDefaultTtl(57), 64);
  EXPECT_EQ(InferDefaultTtl(63), 64);
  EXPECT_EQ(InferDefaultTtl(64), 128);
  EXPECT_EQ(InferDefaultTtl(120), 128);
  EXPECT_EQ(InferDefaultTtl(128), 192);
  EXPECT_EQ(InferDefaultTtl(191), 192);
  EXPECT_EQ(InferDefaultTtl(192), 255);
  EXPECT_EQ(InferDefaultTtl(250), 255);
}

TEST(LastHopProber, IdentifiesSingleGateway) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  LastHopResult result = prober.Probe(Addr("20.0.1.9"));
  ASSERT_EQ(result.status, LastHopStatus::kOk);
  ASSERT_EQ(result.last_hops.size(), 1u);
  EXPECT_EQ(result.last_hops.front(),
            net.topology.router(net.gw1).reply_address);
  EXPECT_EQ(result.host_hop, MiniNet::kHostHop);
}

TEST(LastHopProber, PerDestGatewayMatchesGroundTruth) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  for (std::uint32_t host = 1; host < 32; ++host) {
    netsim::Ipv4Address dst(Addr("20.0.2.0").value() + host);
    LastHopResult result = prober.Probe(dst);
    ASSERT_EQ(result.status, LastHopStatus::kOk) << dst.ToString();
    netsim::RouterId truth = test::OracleLastHop(*net.simulator, dst, 1);
    ASSERT_EQ(result.last_hops.size(), 1u);
    EXPECT_EQ(result.last_hops.front(),
              net.topology.router(truth).reply_address);
  }
}

TEST(LastHopProber, UnresponsiveHost) {
  netsim::HostModelConfig cold;
  cold.snapshot_availability = 1.0;
  cold.probe_availability = 0.0;
  MiniNet net = BuildMiniNet(cold);
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  LastHopResult result = prober.Probe(Addr("20.0.1.9"));
  EXPECT_EQ(result.status, LastHopStatus::kHostUnresponsive);
  EXPECT_TRUE(result.last_hops.empty());
  EXPECT_EQ(result.probes_used, 1);  // a single wasted echo
}

TEST(LastHopProber, SilentGatewayReportsUnresponsiveLastHop) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  LastHopResult result = prober.Probe(Addr("20.0.3.9"));
  EXPECT_EQ(result.status, LastHopStatus::kLastHopUnresponsive);
  EXPECT_TRUE(result.last_hops.empty());
  EXPECT_EQ(result.host_hop, MiniNet::kHostHop);
}

TEST(LastHopProber, LegacyTtlHostStillResolved) {
  // Find a destination whose host draws the 32 default TTL: inference
  // massively overshoots, the halving loop must recover.
  MiniNet net = BuildMiniNet();
  const netsim::HostModel& hosts = net.simulator->host_model();
  netsim::Ipv4Address legacy;
  bool found = false;
  for (std::uint32_t host = 1; host < 255 && !found; ++host) {
    netsim::Ipv4Address dst(Addr("20.0.1.0").value() + host);
    if (hosts.OsOf(dst) == netsim::TtlFamily::kLegacy32) {
      legacy = dst;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "fixture should contain at least one legacy host";
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  LastHopResult result = prober.Probe(legacy);
  ASSERT_EQ(result.status, LastHopStatus::kOk);
  EXPECT_EQ(result.last_hops.front(),
            net.topology.router(net.gw1).reply_address);
  EXPECT_EQ(result.host_hop, MiniNet::kHostHop);
}

TEST(LastHopProber, ReverseAsymmetryTriggersHalving) {
  // Rebuild the fixture with aggressive reverse asymmetry: the prober
  // must still identify last hops for every destination.
  using namespace netsim;
  test::MiniNet net = test::BuildMiniNet();
  HostModelConfig warm;
  warm.snapshot_availability = 1.0;
  warm.probe_availability = 1.0;
  warm.seed = 11;
  SimulatorConfig sim;
  sim.seed = 7;
  sim.p_reverse_asymmetry = 1.0;  // every reverse path is longer
  sim.max_reverse_extra_hops = 3;
  RttModelConfig rtt;
  rtt.seed = 13;
  Simulator asym(&net.topology, net.src, test::Addr("10.0.0.1"),
                 HostModel(warm), RttModel(rtt), sim);
  RouteMemo memo;
  LastHopProber prober(&asym, memo);
  for (std::uint32_t host = 1; host < 16; ++host) {
    Ipv4Address dst(test::Addr("20.0.1.0").value() + host);
    LastHopResult result = prober.Probe(dst);
    ASSERT_EQ(result.status, LastHopStatus::kOk) << dst.ToString();
    EXPECT_EQ(result.last_hops.front(),
              net.topology.router(net.gw1).reply_address);
  }
}

TEST(LastHopProber, ProbeBudgetIsModest) {
  // The whole point of §3.4: identifying a last hop should cost an echo
  // plus a handful of targeted probes, not a full traceroute.
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  LastHopProber prober(net.simulator.get(), memo);
  LastHopResult result = prober.Probe(Addr("20.0.1.77"));
  ASSERT_EQ(result.status, LastHopStatus::kOk);
  EXPECT_LE(result.probes_used, 12);
}

}  // namespace
}  // namespace hobbit::probing
