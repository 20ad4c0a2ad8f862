// test_route_memo.cpp — the hop-row memo is the simulator's one forward
// walk, so it must be exact: paths equal to the FIB-resolved oracle walk
// (walk_oracle.h), and replies through a warm memo equal to replies
// through a fresh one, across flows, TTLs, balancer policies, vantages
// and topology mutations.
#include "netsim/route_memo.h"

#include <gtest/gtest.h>

#include <string>

#include "netsim/internet.h"
#include "netsim/outage.h"
#include "netsim/simulator.h"
#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit::netsim {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;
using test::OracleWalk;
using test::Pfx;

/// Records the walk context Send hands the artifact hook, leaving every
/// reply untouched.
class RecordingArtifacts : public ReplyArtifacts {
 public:
  void Rewrite(const ProbeSpec&, const ArtifactContext& context,
               ProbeReply&) const override {
    path_length = context.path_length;
  }
  mutable int path_length = -1;
};

/// Sends `probe` through a fresh memo, which decodes every row and makes
/// every responds draw anew, and through the warm `memo`, and requires
/// the two replies (and the hook's path length) to match field for
/// field.  The walk itself is checked against the oracle: the path the
/// hook sees has the oracle's length, and a TTL-exceeded reply comes from
/// the oracle's router at that hop.
void ExpectSameSend(Simulator& simulator, RouteMemo& memo,
                    const ProbeSpec& probe) {
  RecordingArtifacts recorder;
  simulator.SetReplyArtifacts(&recorder);
  RouteMemo fresh_memo;
  const ProbeReply fresh = simulator.Send(probe, fresh_memo);
  const int fresh_length = recorder.path_length;
  const ProbeReply memoized = simulator.Send(probe, memo);
  const int memoized_length = recorder.path_length;
  simulator.SetReplyArtifacts(nullptr);
  const std::string where = probe.destination.ToString() + " ttl " +
                            std::to_string(probe.ttl) + " flow " +
                            std::to_string(probe.flow_id);
  ASSERT_EQ(memoized.kind, fresh.kind) << where;
  ASSERT_EQ(memoized.responder, fresh.responder) << where;
  ASSERT_EQ(memoized.reply_ttl, fresh.reply_ttl) << where;
  ASSERT_EQ(memoized.hop, fresh.hop) << where;
  ASSERT_EQ(memoized.rtt_ms, fresh.rtt_ms) << where;
  ASSERT_EQ(memoized_length, fresh_length) << where;

  const std::vector<RouterId> oracle =
      OracleWalk(simulator, probe.destination, probe.flow_id, probe.serial);
  ASSERT_EQ(static_cast<std::size_t>(memoized_length), oracle.size())
      << where;
  if (memoized.kind == ReplyKind::kTtlExceeded) {
    ASSERT_LE(static_cast<std::size_t>(probe.ttl), oracle.size()) << where;
    ASSERT_EQ(memoized.responder,
              simulator.topology()
                  .router(oracle[static_cast<std::size_t>(probe.ttl) - 1])
                  .reply_address)
        << where;
  }
}

/// Every TTL from 1 to one past the host, plus 64, for flows 0-15, with
/// the memo's path for each flow checked against the oracle's.
void SweepDestination(Simulator& simulator, RouteMemo& memo,
                      Ipv4Address dst, std::uint64_t& serial) {
  const int host_hop =
      static_cast<int>(OracleWalk(simulator, dst, 0, 0).size()) + 1;
  for (std::uint16_t flow = 0; flow < 16; ++flow) {
    ASSERT_EQ(simulator.ResolvePath(dst, flow, serial, memo),
              OracleWalk(simulator, dst, flow, serial))
        << dst.ToString() << " flow " << flow;
    for (int ttl = 1; ttl <= host_hop + 2; ++ttl) {
      ProbeSpec probe;
      probe.destination = dst;
      probe.ttl = ttl == host_hop + 2 ? 64 : ttl;
      probe.flow_id = flow;
      probe.serial = serial++;
      ExpectSameSend(simulator, memo, probe);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Re-points the MiniNet's two balancers — r1 over {m1, m2} and agg over
/// 20.0.2.0/24's gateways — at `policy`; `wide` makes r1's group wider
/// than a row's inline next hops (duplicates keep every pick routable).
void SetBalancers(MiniNet& net, LbPolicy policy, bool wide) {
  std::vector<RouterId> middle = {net.m1, net.m2};
  if (wide) {
    while (middle.size() <= RouteMemo::kInlineHops) {
      middle.push_back(middle.size() % 2 == 0 ? net.m1 : net.m2);
    }
  }
  net.topology.router(net.r1).fib.Add(Pfx("0.0.0.0/0"), {middle, policy});
  net.topology.router(net.agg).fib.Add(Pfx("20.0.2.0/24"),
                                       {{net.gw1, net.gw2}, policy});
}

std::vector<Ipv4Address> BlockDestinations() {
  std::vector<Ipv4Address> destinations;
  for (const char* base : {"20.0.1.0", "20.0.2.0", "20.0.3.0", "20.0.4.0",
                           "20.0.5.0"}) {
    const std::uint32_t prefix = Addr(base).value();
    for (std::uint32_t octet : {0u, 1u, 63u, 64u, 65u, 128u, 200u, 255u}) {
      destinations.emplace_back(prefix | octet);
    }
  }
  return destinations;
}

TEST(RouteMemo, ResolvePathIdenticalWithAndWithoutMemo) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  for (Ipv4Address dst : BlockDestinations()) {
    for (std::uint16_t flow = 0; flow < 4; ++flow) {
      auto memoized = net.simulator->ResolvePath(dst, flow, 0, memo);
      auto oracle = OracleWalk(*net.simulator, dst, flow, 0);
      ASSERT_EQ(memoized, oracle)
          << dst.ToString() << " flow " << flow;
    }
  }
  // The sweep re-resolves each destination 4 times through 6-router
  // paths; most lookups must come from the cache.
  EXPECT_GT(memo.hits(), memo.misses());
}

TEST(RouteMemo, SendRepliesIdenticalWithMemo) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  std::uint64_t serial = 1;
  for (Ipv4Address dst : BlockDestinations()) {
    for (int ttl : {1, 3, MiniNet::kHostHop - 1, MiniNet::kHostHop, 64}) {
      for (std::uint16_t flow = 0; flow < 3; ++flow) {
        ProbeSpec probe;
        probe.destination = dst;
        probe.ttl = ttl;
        probe.flow_id = flow;
        probe.serial = serial++;
        ExpectSameSend(*net.simulator, memo, probe);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RouteMemo, WarmMemoSeesOutageAndHookInstalledLater) {
  // Rows hold forwarding facts only: an outage overlay and a reply hook
  // installed after the memo is warm must show on the next probe.
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  for (int ttl = 1; ttl <= MiniNet::kHostHop; ++ttl) {
    probe.ttl = ttl;
    net.simulator->Send(probe, memo);
  }
  probe.ttl = 64;
  ASSERT_EQ(net.simulator->Send(probe, memo).kind, ReplyKind::kEchoReply);

  OutageOverlay overlay;
  overlay.Fail(Pfx("20.0.1.0/24"));
  net.simulator->SetOutageOverlay(&overlay);
  RecordingArtifacts recorder;
  net.simulator->SetReplyArtifacts(&recorder);
  const ProbeReply reply = net.simulator->Send(probe, memo);
  net.simulator->SetReplyArtifacts(nullptr);
  net.simulator->SetOutageOverlay(nullptr);
  EXPECT_EQ(reply.kind, ReplyKind::kTimeout);
  EXPECT_EQ(recorder.path_length, MiniNet::kHostHop - 1);
  EXPECT_EQ(net.simulator->Send(probe, memo).kind, ReplyKind::kEchoReply);
}

TEST(RouteMemo, InvalidatesWhenTopologyMutates) {
  MiniNet net = BuildMiniNet();
  RouteMemo memo;
  const Ipv4Address dst = Addr("20.0.1.5");

  // Warm the memo through every router on the path.
  for (std::uint16_t flow = 0; flow < 8; ++flow) {
    auto path = net.simulator->ResolvePath(dst, flow, 0, memo);
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(path.back(), net.gw1);
  }

  // Collapse r1's per-flow pair {m1, m2} down to {m1}.  The non-const
  // router() access bumps the topology's mutation epoch, so the memo must
  // drop its cached FibEntry pointers instead of serving stale routes.
  const std::uint64_t epoch_before = net.topology.mutation_epoch();
  net.topology.router(net.r1).fib.Add(Pfx("0.0.0.0/0"),
                                      {{net.m1}, LbPolicy::kPerFlow});
  EXPECT_GT(net.topology.mutation_epoch(), epoch_before);

  for (std::uint16_t flow = 0; flow < 8; ++flow) {
    auto memoized = net.simulator->ResolvePath(dst, flow, 0, memo);
    auto oracle = OracleWalk(*net.simulator, dst, flow, 0);
    ASSERT_EQ(memoized, oracle) << "flow " << flow;
    ASSERT_EQ(memoized[2], net.m1) << "stale route served from the memo";
  }
}

TEST(RouteMemo, SendIdenticalAcrossBalancerModes) {
  std::uint64_t serial = 1;

  // A generated world: every study /24, at addresses spread over its
  // /26s, through one warm memo.
  {
    Internet internet = BuildInternet(TinyConfig(7));
    RouteMemo memo;
    for (const Prefix& slash24 : internet.study_24s) {
      for (std::uint32_t octet : {1u, 70u, 130u, 254u}) {
        SweepDestination(*internet.simulator, memo,
                         Ipv4Address(slash24.base().value() | octet),
                         serial);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(memo.hits(), memo.misses());
  }

  // Every balancer policy, including multi-next-hop kPerPacket and a
  // group too wide to inline, with an epoch bump halfway through each
  // sweep: the policy changes under a warm memo, and the destination
  // swept last, whose rows the memo holds, is swept again.
  struct Variant {
    LbPolicy policy;
    bool wide;
    LbPolicy after;
  };
  for (const Variant& variant :
       {Variant{LbPolicy::kPerPacket, false, LbPolicy::kPerFlow},
        Variant{LbPolicy::kPerPacket, true, LbPolicy::kPerDestination},
        Variant{LbPolicy::kPerDestinationCyclic, false, LbPolicy::kPerPacket},
        Variant{LbPolicy::kPerDestAndSrc, false,
                LbPolicy::kPerDestinationCyclic},
        Variant{LbPolicy::kPerFlow, true, LbPolicy::kPerDestAndSrc},
        Variant{LbPolicy::kPerDestination, false, LbPolicy::kPerFlow}}) {
    SCOPED_TRACE(static_cast<int>(variant.policy));
    MiniNet net = BuildMiniNet();
    SetBalancers(net, variant.policy, variant.wide);
    RouteMemo memo;
    const std::vector<Ipv4Address> destinations = BlockDestinations();
    for (std::size_t i = 0; i < destinations.size(); ++i) {
      if (i == destinations.size() / 2) {
        SetBalancers(net, variant.after, !variant.wide);
        SweepDestination(*net.simulator, memo, destinations[i - 1], serial);
      }
      SweepDestination(*net.simulator, memo, destinations[i], serial);
      if (HasFatalFailure()) return;
    }
  }

  // One memo used alternately by two vantages' simulators: rows hold
  // source-dependent picks, so each switch must drop them.
  {
    InternetConfig config = TinyConfig(11);
    config.extra_vantages = 1;
    Internet internet = BuildInternet(config);
    std::unique_ptr<Simulator> second =
        internet.MakeSimulatorAt(internet.extra_vantages[0]);
    RouteMemo memo;
    for (const Prefix& slash24 : internet.study_24s) {
      const Ipv4Address dst(slash24.base().value() | 9u);
      SweepDestination(*internet.simulator, memo, dst, serial);
      SweepDestination(*second, memo, dst, serial);
      if (HasFatalFailure()) return;
    }
  }

  // 0.0.0.0 as a routable destination: a zero-filled row reads dst 0, so
  // only the decoded flag keeps it from passing as decoded.
  {
    Topology topology;
    auto router = [&topology](const char* address) {
      Router r;
      r.reply_address = Addr(address);
      return topology.AddRouter(std::move(r));
    };
    const RouterId src = router("10.0.0.1");
    const RouterId r1 = router("10.0.0.2");
    const RouterId m1 = router("10.0.0.3");
    const RouterId m2 = router("10.0.0.4");
    const RouterId gw = router("10.0.0.5");
    const Prefix any = Pfx("0.0.0.0/0");
    topology.router(src).fib.AddSingle(any, r1);
    topology.router(r1).fib.Add(any, {{m1, m2}, LbPolicy::kPerFlow});
    topology.router(m1).fib.AddSingle(any, gw);
    topology.router(m2).fib.AddSingle(any, gw);
    Subnet subnet;
    subnet.prefix = Pfx("0.0.0.0/24");
    subnet.gateways = {gw};
    subnet.occupancy = 1.0;
    subnet.base_rtt_ms = 10.0;
    topology.AddSubnet(std::move(subnet));
    topology.Seal();
    HostModelConfig host;
    host.snapshot_availability = 1.0;
    host.probe_availability = 1.0;
    Simulator simulator(&topology, src, Addr("10.0.0.1"), HostModel(host),
                        RttModel(RttModelConfig{}), SimulatorConfig{});
    ASSERT_EQ(OracleWalk(simulator, Ipv4Address(0), 0, 0).size(), 4u);
    RouteMemo memo;
    SweepDestination(simulator, memo, Ipv4Address(0), serial);
    SweepDestination(simulator, memo, Addr("0.0.0.1"), serial);
  }
}

TEST(RouteMemo, TopologyCopyAndMoveBumpEpoch) {
  MiniNet net = BuildMiniNet();
  const std::uint64_t epoch = net.topology.mutation_epoch();
  Topology copy = net.topology;
  EXPECT_GT(copy.mutation_epoch(), epoch);
  Topology moved = std::move(copy);
  EXPECT_GT(moved.mutation_epoch(), epoch);
}

}  // namespace
}  // namespace hobbit::netsim
