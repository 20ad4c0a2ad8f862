#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit::netsim {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;

TEST(Simulator, ResolvesPathToSingleGatewaySubnet) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  auto path = net.simulator->ResolvePath(Addr("20.0.1.9"), 0, 0, memo);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path.front(), net.src);
  EXPECT_EQ(path.back(), net.gw1);
}

TEST(Simulator, UnroutableDestinationGivesEmptyPath) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  EXPECT_TRUE(net.simulator->ResolvePath(Addr("99.9.9.9"), 0, 0, memo).empty());
}

TEST(Simulator, SameHeaderSamePath) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  for (std::uint16_t flow : {0, 1, 7, 999}) {
    auto a = net.simulator->ResolvePath(Addr("20.0.2.10"), flow, 1, memo);
    auto b = net.simulator->ResolvePath(Addr("20.0.2.10"), flow, 2, memo);
    EXPECT_EQ(a, b) << "flow " << flow;
  }
}

TEST(Simulator, PerFlowDiversityVariesWithFlowId) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  std::set<RouterId> mids;
  for (std::uint16_t flow = 0; flow < 32; ++flow) {
    auto path = net.simulator->ResolvePath(Addr("20.0.1.9"), flow, 0, memo);
    ASSERT_EQ(path.size(), 6u);
    mids.insert(path[2]);  // the m1/m2 stage
  }
  EXPECT_EQ(mids.size(), 2u) << "both per-flow branches should appear";
}

TEST(Simulator, PerDestinationPicksOneGatewayPerAddress) {
  MiniNet net = BuildMiniNet();
  std::set<RouterId> gateways;
  for (std::uint32_t host = 1; host < 64; ++host) {
    Ipv4Address dst(Addr("20.0.2.0").value() + host);
    RouterId gw_a = test::OracleLastHop(*net.simulator, dst, 0);
    RouterId gw_b = test::OracleLastHop(*net.simulator, dst, 12345);
    EXPECT_EQ(gw_a, gw_b) << "flow id must not influence per-dest choice";
    gateways.insert(gw_a);
  }
  EXPECT_EQ(gateways.size(), 2u) << "both gateways should serve the /24";
}

TEST(Simulator, TtlExpiryReturnsRouterAtThatHop) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 1;
  ProbeReply reply = net.simulator->Send(probe, memo);
  EXPECT_EQ(reply.kind, ReplyKind::kTtlExceeded);
  EXPECT_EQ(reply.responder, Addr("10.0.0.1"));

  probe.ttl = 6;  // the gateway
  reply = net.simulator->Send(probe, memo);
  EXPECT_EQ(reply.kind, ReplyKind::kTtlExceeded);
  EXPECT_EQ(reply.responder, net.topology.router(net.gw1).reply_address);
}

TEST(Simulator, SufficientTtlReachesHost) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 64;
  ProbeReply reply = net.simulator->Send(probe, memo);
  EXPECT_EQ(reply.kind, ReplyKind::kEchoReply);
  EXPECT_EQ(reply.responder, Addr("20.0.1.9"));
  EXPECT_EQ(reply.hop, MiniNet::kHostHop);
}

TEST(Simulator, EchoReplyTtlEncodesReversePath) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 64;
  ProbeReply reply = net.simulator->Send(probe, memo);
  const HostModel& hosts = net.simulator->host_model();
  int default_ttl = hosts.DefaultTtl(probe.destination);
  // Symmetric reverse path (asymmetry disabled in the fixture): six
  // routers between host and source.
  EXPECT_EQ(reply.reply_ttl, default_ttl - 6);
}

TEST(Simulator, SilentRouterNeverAnswers) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.3.9");
  probe.ttl = 6;  // gw_silent
  for (std::uint64_t serial = 0; serial < 50; ++serial) {
    probe.serial = serial;
    EXPECT_EQ(net.simulator->Send(probe, memo).kind, ReplyKind::kTimeout);
  }
}

TEST(Simulator, InactiveHostTimesOut) {
  HostModelConfig cold;
  cold.snapshot_availability = 0.0;
  cold.probe_availability = 0.0;
  MiniNet net = BuildMiniNet(cold);
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 64;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind, ReplyKind::kTimeout);
}

TEST(Simulator, CarvedPrefixRoutesToItsOwnGateway) {
  MiniNet net = BuildMiniNet();
  EXPECT_EQ(test::OracleLastHop(*net.simulator, Addr("20.0.4.70"), 0),
            net.gw2);
  EXPECT_EQ(test::OracleLastHop(*net.simulator, Addr("20.0.4.10"), 0),
            net.gw1);
  EXPECT_EQ(test::OracleLastHop(*net.simulator, Addr("20.0.4.200"), 0),
            net.gw1);
}

TEST(Simulator, ProbeCounterAdvances) {
  // The artifact hook sees every Send exactly once: the independent
  // packet count the load-accounting tests rely on.
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  test::SendCounter sends(*net.simulator);
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 64;
  net.simulator->Send(probe, memo);
  net.simulator->Send(probe, memo);
  EXPECT_EQ(sends.count(), 2u);
  probe.destination = Addr("20.0.3.9");  // silent gateway: still a packet
  probe.ttl = 6;
  net.simulator->Send(probe, memo);
  EXPECT_EQ(sends.count(), 3u);
}

TEST(Simulator, RttPositiveAndGrowsWithDistance) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec near_probe;
  near_probe.destination = Addr("20.0.1.9");
  near_probe.ttl = 64;
  ProbeReply reply = net.simulator->Send(near_probe, memo);
  EXPECT_GT(reply.rtt_ms, 0.0);
}

}  // namespace
}  // namespace hobbit::netsim
