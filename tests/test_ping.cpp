#include "probing/ping.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hobbit::probing {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;

TEST(Pinger, EchoReturnsRttAndTtl) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  auto result = pinger.Ping(Addr("20.0.1.9"));
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->rtt_ms, 0.0);
  EXPECT_GT(result->reply_ttl, 0);
  EXPECT_LT(result->reply_ttl, 256);
}

TEST(Pinger, UnresponsiveHostGivesNullopt) {
  netsim::HostModelConfig cold;
  cold.probe_availability = 0.0;
  MiniNet net = BuildMiniNet(cold);
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  EXPECT_FALSE(pinger.Ping(Addr("20.0.1.9")).has_value());
}

TEST(Pinger, TrainDeliversRequestedCount) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  auto train = pinger.PingTrain(Addr("20.0.1.9"), 12);
  EXPECT_EQ(train.size(), 12u);
  for (const EchoResult& echo : train) EXPECT_GT(echo.rtt_ms, 0.0);
}

TEST(Pinger, TrainToDeadHostIsEmpty) {
  netsim::HostModelConfig cold;
  cold.probe_availability = 0.0;
  MiniNet net = BuildMiniNet(cold);
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  EXPECT_TRUE(pinger.PingTrain(Addr("20.0.1.9"), 5).empty());
}

TEST(Pinger, DistinctTrainsGetDistinctTrainIds) {
  // Two trains to a cellular-style host would each pay the wake-up; here
  // we only verify the mechanism: first probe of each train uses
  // train_sequence 0 with a fresh train id, so RTTs of first probes can
  // legitimately differ from later ones.
  MiniNet net = BuildMiniNet();
  // Mark the subnet cellular so first probes stand out.
  netsim::SubnetId id = net.topology.FindSubnet(Addr("20.0.1.9"));
  net.topology.subnet(id).kind = netsim::SubnetKind::kCellular;
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  int big_first = 0;
  for (int t = 0; t < 20; ++t) {
    auto train = pinger.PingTrain(Addr("20.0.1.9"), 4);
    ASSERT_EQ(train.size(), 4u);
    double rest_max = std::max({train[1].rtt_ms, train[2].rtt_ms,
                                train[3].rtt_ms});
    big_first += train[0].rtt_ms - rest_max > 200.0;
  }
  EXPECT_GT(big_first, 10) << "most trains should pay radio wake-up";
}

TEST(Pinger, SerialCounterAdvancesAcrossCalls) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  Pinger pinger(net.simulator.get(), memo);
  std::uint64_t first = pinger.next_serial();
  pinger.Ping(Addr("20.0.1.9"));
  pinger.PingTrain(Addr("20.0.1.10"), 3);
  std::uint64_t later = pinger.next_serial();
  EXPECT_GE(later, first + 5);
}

}  // namespace
}  // namespace hobbit::probing
