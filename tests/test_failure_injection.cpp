// Failure injection: the measurement stack must degrade gracefully, never
// crash or mis-classify catastrophically, when the network is hostile —
// silent routers everywhere, dead hosts, pathological TTL behaviour,
// per-packet load balancing.
#include <gtest/gtest.h>

#include "hobbit/pipeline.h"
#include "hobbit/prober.h"
#include "netsim/internet.h"
#include "probing/last_hop.h"
#include "probing/traceroute.h"
#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit {
namespace {

using test::Addr;
using test::FullBlock;
using test::Pfx;

TEST(FailureInjection, EntirelySilentWorldYieldsUnresponsiveClass) {
  // Every router silent: traceroute sees only wildcards, the last-hop
  // prober finds nothing, blocks classify as unresponsive.
  test::MiniNet net = test::BuildMiniNet();
  for (std::size_t r = 0; r < net.topology.router_count(); ++r) {
    net.topology.router(static_cast<netsim::RouterId>(r))
        .response.respond_probability = 0.0;
  }
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  probing::Route route = probing::ParisTraceroute(
      *net.simulator, memo, Addr("20.0.1.9"), 1, serial);
  // Traceroute hits its gap limit before ever reaching the host, exactly
  // as the real tool would; no responsive hop is recorded.
  EXPECT_FALSE(route.reached_destination);
  for (const probing::Hop& hop : route.hops) {
    EXPECT_FALSE(hop.responsive);
  }
  core::BlockProber prober(net.simulator.get(), nullptr, {});
  core::BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.1.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification,
            core::Classification::kUnresponsiveLastHop);
}

TEST(FailureInjection, DeadBlockClassifiesTooFew) {
  netsim::HostModelConfig cold;
  cold.snapshot_availability = 1.0;
  cold.probe_availability = 0.0;  // snapshot lied; everything died
  test::MiniNet net = test::BuildMiniNet(cold);
  core::BlockProber prober(net.simulator.get(), nullptr, {});
  core::BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.1.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification, core::Classification::kTooFewActive);
  EXPECT_EQ(result.hosts_unresponsive, 256);
}

TEST(FailureInjection, PerPacketBalancerDoesNotWedgeTraceroute) {
  // Replace the per-flow stage with per-packet: paths flap per probe.
  test::MiniNet net = test::BuildMiniNet();
  net.topology.router(net.r1).fib.Add(
      Pfx("0.0.0.0/0"),
      {{net.m1, net.m2}, netsim::LbPolicy::kPerPacket});
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  probing::Route route = probing::ParisTraceroute(
      *net.simulator, memo, Addr("20.0.1.9"), 1, serial);
  EXPECT_TRUE(route.reached_destination);
  // MDA still terminates (the safety valve bounds it).
  std::vector<probing::Route> routes =
      probing::EnumerateRoutes(*net.simulator, memo, Addr("20.0.1.9"),
                               serial);
  EXPECT_GE(routes.size(), 1u);
}

TEST(FailureInjection, ForwardingLoopIsUnroutable) {
  netsim::Topology t;
  netsim::Router a;
  a.reply_address = Addr("10.0.0.1");
  netsim::Router b;
  b.reply_address = Addr("10.0.0.2");
  netsim::RouterId ra = t.AddRouter(a);
  netsim::RouterId rb = t.AddRouter(b);
  t.router(ra).fib.AddSingle(Pfx("0.0.0.0/0"), rb);
  t.router(rb).fib.AddSingle(Pfx("0.0.0.0/0"), ra);  // loop
  netsim::Subnet s;
  s.prefix = Pfx("20.0.0.0/24");
  s.gateways = {};  // attached to no router: unreachable by construction
  t.AddSubnet(s);
  t.Seal();
  netsim::HostModelConfig hosts;
  netsim::Simulator sim(&t, ra, Addr("10.0.0.1"),
                        netsim::HostModel(hosts),
                        netsim::RttModel({}), {});
  netsim::RouteMemo memo;
  EXPECT_TRUE(sim.ResolvePath(Addr("20.0.0.5"), 0, 0, memo).empty());
  netsim::ProbeSpec probe;
  probe.destination = Addr("20.0.0.5");
  probe.ttl = 64;
  EXPECT_EQ(sim.Send(probe, memo).kind, netsim::ReplyKind::kTimeout);
}

TEST(FailureInjection, ExtremeReverseAsymmetryStillResolvesLastHops) {
  netsim::InternetConfig config = netsim::TinyConfig(13);
  config.sim.p_reverse_asymmetry = 1.0;
  config.sim.max_reverse_extra_hops = 12;
  // Densely populated hosts so the probe targets exist.
  for (auto& profile : config.profiles) {
    profile.p_sparse = 0.0;
    profile.dense_occupancy_min = 0.5;
    profile.dense_occupancy_max = 0.9;
  }
  netsim::Internet internet = netsim::BuildInternet(config);
  netsim::RouteMemo memo;
  probing::LastHopProber prober(internet.simulator.get(), memo);
  int resolved = 0, attempted = 0;
  for (std::size_t i = 0; i < internet.study_24s.size() && attempted < 40;
       i += 5) {
    for (std::uint32_t host = 120; host < 140; ++host) {
      netsim::Ipv4Address dst(internet.study_24s[i].base().value() + host);
      probing::LastHopResult r = prober.Probe(dst);
      if (r.status == probing::LastHopStatus::kHostUnresponsive) continue;
      ++attempted;
      resolved += r.status == probing::LastHopStatus::kOk;
      break;
    }
  }
  ASSERT_GT(attempted, 10);
  // Halving must recover the vast majority despite the wild estimates.
  EXPECT_GT(resolved, attempted * 7 / 10);
}

TEST(FailureInjection, PipelineSurvivesHostileWorld) {
  // Crank every failure knob at once; the pipeline must complete and
  // classify everything into the not-analyzable classes predominantly.
  netsim::InternetConfig config = netsim::TinyConfig(17);
  for (auto& profile : config.profiles) {
    profile.p_silent_pop = 0.8;
    profile.p_sparse = 0.9;
    profile.sparse_occupancy_min = 0.01;
    profile.sparse_occupancy_max = 0.03;
  }
  config.host.probe_availability = 0.5;
  netsim::Internet internet = netsim::BuildInternet(config);
  core::PipelineConfig pipeline_config;
  pipeline_config.seed = 17;
  pipeline_config.calibration_blocks = 30;
  core::PipelineResult result = core::RunPipeline(internet, pipeline_config);
  auto counts = result.classification_counts();
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, result.results.size());
  const std::size_t not_analyzable =
      counts[0] + counts[1];  // too-few + unresponsive
  EXPECT_GT(not_analyzable * 2, total)
      << "a hostile world should be mostly unanalyzable";
}

TEST(FailureInjection, CyclicPolicySplitsAdjacentAddresses) {
  // The low-bit-sensitive hash must send /31 twins to different next
  // hops nearly always (width 2).
  test::MiniNet net = test::BuildMiniNet();
  net.topology.router(net.agg).fib.Add(
      Pfx("20.0.2.0/24"),
      {{net.gw1, net.gw2}, netsim::LbPolicy::kPerDestinationCyclic});
  int differ = 0, pairs = 0;
  for (std::uint32_t base = 0; base < 250; base += 2) {
    netsim::Ipv4Address a(Addr("20.0.2.0").value() + base);
    netsim::Ipv4Address b(Addr("20.0.2.0").value() + base + 1);
    differ += test::OracleLastHop(*net.simulator, a, 0) !=
              test::OracleLastHop(*net.simulator, b, 0);
    ++pairs;
  }
  EXPECT_GT(differ, pairs * 9 / 10);
}

TEST(FailureInjection, RateLimitingIsPerDestinationStable) {
  // The bursty model: for a fixed (router, destination) the router either
  // answers every probe or none.
  test::MiniNet net = test::BuildMiniNet();
  net.topology.router(net.agg).response.respond_probability = 0.5;
  for (std::uint32_t host = 1; host < 40; ++host) {
    netsim::Ipv4Address dst(Addr("20.0.1.0").value() + host);
    int answers = 0;
    for (std::uint64_t s = 0; s < 8; ++s) {
      netsim::ProbeSpec probe;
      probe.destination = dst;
      probe.ttl = 5;  // the agg hop
      probe.serial = s;
      // A fresh memo per probe: every probe makes the responds draw anew
      // instead of reading the one its row kept.
      netsim::RouteMemo memo;
      answers += net.simulator->Send(probe, memo).kind ==
                 netsim::ReplyKind::kTtlExceeded;
    }
    EXPECT_TRUE(answers == 0 || answers == 8) << dst.ToString();
  }
}

}  // namespace
}  // namespace hobbit
