#include "analysis/outage_detection.h"

#include <gtest/gtest.h>

#include "netsim/outage.h"
#include "test_util.h"

namespace hobbit::analysis {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;
using test::Pfx;

std::vector<netsim::Ipv4Address> AddressesOf(const char* base, int first,
                                             int count) {
  std::vector<netsim::Ipv4Address> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(netsim::Ipv4Address(Addr(base).value() +
                                      static_cast<std::uint32_t>(first + i)));
  }
  return out;
}

TEST(OutageOverlay, ContainmentSemantics) {
  netsim::OutageOverlay overlay;
  overlay.Fail(Pfx("20.0.1.0/25"));
  EXPECT_TRUE(overlay.IsDown(Addr("20.0.1.5")));
  EXPECT_TRUE(overlay.IsDown(Addr("20.0.1.127")));
  EXPECT_FALSE(overlay.IsDown(Addr("20.0.1.128")));
  EXPECT_FALSE(overlay.IsDown(Addr("20.0.2.5")));
  overlay.Clear();
  EXPECT_FALSE(overlay.IsDown(Addr("20.0.1.5")));
}

TEST(OutageOverlay, SilencesHostsInSimulator) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  netsim::OutageOverlay overlay;
  overlay.Fail(Pfx("20.0.1.0/24"));
  net.simulator->SetOutageOverlay(&overlay);
  netsim::ProbeSpec probe;
  probe.destination = Addr("20.0.1.9");
  probe.ttl = 64;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kTimeout);
  // Routers still answer TTL-limited probes (the outage is at the hosts).
  probe.ttl = 3;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kTtlExceeded);
  // Other blocks are unaffected.
  netsim::ProbeSpec other;
  other.destination = Addr("20.0.2.9");
  other.ttl = 64;
  EXPECT_EQ(net.simulator->Send(other, memo).kind,
            netsim::ReplyKind::kEchoReply);
  net.simulator->SetOutageOverlay(nullptr);
  probe.ttl = 64;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kEchoReply);
}

TEST(OutageDetection, UpBlockStaysUp) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  WatchedBlock block = MakeWatchedBlock(*net.simulator, memo,
                                        AddressesOf("20.0.1.0", 1, 40));
  EXPECT_EQ(block.actives.size(), 40u);
  DetectionResult result =
      DetectOutage(*net.simulator, memo, block, {}, netsim::Rng(1));
  EXPECT_EQ(result.verdict, OutageVerdict::kUp);
  EXPECT_LE(result.probes_used, 6);
}

TEST(OutageDetection, FullOutageIsCaught) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  WatchedBlock block = MakeWatchedBlock(*net.simulator, memo,
                                        AddressesOf("20.0.1.0", 1, 40));
  netsim::OutageOverlay overlay;
  overlay.Fail(Pfx("20.0.1.0/24"));
  net.simulator->SetOutageOverlay(&overlay);
  DetectionResult result =
      DetectOutage(*net.simulator, memo, block, {}, netsim::Rng(2));
  EXPECT_EQ(result.verdict, OutageVerdict::kDown);
  net.simulator->SetOutageOverlay(nullptr);
}

TEST(OutageDetection, PartialOutageHidesAtCoarseGranularity) {
  // The paper's Trinocular blind spot: fail only the first /26 of the
  // /24; a whole-/24 watch (sampling mostly live addresses) keeps saying
  // "up", a sub-block watch says "down".
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::vector<netsim::Ipv4Address> whole = AddressesOf("20.0.1.0", 1, 200);
  WatchedBlock watch_24 = MakeWatchedBlock(*net.simulator, memo, whole);
  WatchedBlock watch_sub = MakeWatchedBlock(
      *net.simulator, memo, AddressesOf("20.0.1.0", 1, 60));

  netsim::OutageOverlay overlay;
  overlay.Fail(Pfx("20.0.1.0/26"));
  net.simulator->SetOutageOverlay(&overlay);

  int whole_down = 0, sub_down = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    whole_down += DetectOutage(*net.simulator, memo, watch_24, {},
                               netsim::Rng(seed))
                      .verdict == OutageVerdict::kDown;
    sub_down += DetectOutage(*net.simulator, memo, watch_sub, {},
                             netsim::Rng(seed))
                    .verdict == OutageVerdict::kDown;
  }
  net.simulator->SetOutageOverlay(nullptr);
  EXPECT_LE(whole_down, 6) << "the /24 watch should mostly miss a 1/4 outage";
  EXPECT_GE(sub_down, 18) << "the sub-block watch must catch it";
}

TEST(OutageDetection, EmptyWatchIsUndecided) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  WatchedBlock block;
  DetectionResult result =
      DetectOutage(*net.simulator, memo, block, {}, netsim::Rng(3));
  EXPECT_EQ(result.verdict, OutageVerdict::kUndecided);
  EXPECT_EQ(result.probes_used, 0);
}

}  // namespace
}  // namespace hobbit::analysis
