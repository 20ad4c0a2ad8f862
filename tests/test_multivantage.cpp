// Multi-vantage support (§6.1): extra vantages must route correctly and
// expose source-sensitive load balancing.
#include <gtest/gtest.h>

#include <set>

#include "netsim/internet.h"
#include "test_util.h"
#include "walk_oracle.h"

namespace hobbit::netsim {
namespace {

TEST(MultiVantage, ExtraVantagesAreBuiltAndRoutable) {
  InternetConfig config = TinyConfig(51);
  config.extra_vantages = 2;
  Internet internet = BuildInternet(config);
  ASSERT_EQ(internet.extra_vantages.size(), 2u);
  auto sim = internet.MakeSimulatorAt(internet.extra_vantages[0]);
  RouteMemo memo;
  for (std::size_t i = 0; i < internet.study_24s.size(); i += 17) {
    Ipv4Address dst(internet.study_24s[i].base().value() + 5);
    EXPECT_FALSE(sim->ResolvePath(dst, 0, 0, memo).empty())
        << internet.study_24s[i].ToString();
  }
}

TEST(MultiVantage, VantagesDisagreeOnlyOnSourceSensitiveGroups) {
  // For a per-dest+src gateway group, two vantages may map the same
  // destination to different gateways; for destination-only hashing they
  // must agree.
  using test::Addr;
  using test::Pfx;
  test::MiniNet net = test::BuildMiniNet();
  // Source-sensitive group on 20.0.2.0/24.
  net.topology.router(net.agg).fib.Add(
      Pfx("20.0.2.0/24"),
      {{net.gw1, net.gw2}, LbPolicy::kPerDestAndSrc});
  HostModelConfig warm;
  warm.snapshot_availability = 1.0;
  warm.probe_availability = 1.0;
  warm.seed = 11;
  SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.p_reverse_asymmetry = 0.0;
  Simulator from_b(&net.topology, net.src, Addr("10.9.9.9"),
                   HostModel(warm), RttModel({}), sim_config);

  int disagreements_pds = 0;
  int disagreements_plain = 0;
  for (std::uint32_t host = 1; host < 120; ++host) {
    Ipv4Address dst_pds(Addr("20.0.2.0").value() + host);
    disagreements_pds +=
        test::OracleLastHop(*net.simulator, dst_pds, 0) !=
        test::OracleLastHop(from_b, dst_pds, 0);
    Ipv4Address dst_plain(Addr("20.0.1.0").value() + host);
    disagreements_plain +=
        test::OracleLastHop(*net.simulator, dst_plain, 0) !=
        test::OracleLastHop(from_b, dst_plain, 0);
  }
  EXPECT_GT(disagreements_pds, 20);
  EXPECT_EQ(disagreements_plain, 0);
}

TEST(MultiVantage, UnionOfVantagesRefinesSparseSets) {
  // From a single vantage, a per-dest+src /24 with few actives may show a
  // partial gateway set; unioning a second vantage's view can only grow
  // it toward the truth.
  using test::Addr;
  using test::Pfx;
  test::MiniNet net = test::BuildMiniNet();
  net.topology.router(net.agg).fib.Add(
      Pfx("20.0.2.0/24"),
      {{net.gw1, net.gw2}, LbPolicy::kPerDestAndSrc});
  HostModelConfig warm;
  warm.snapshot_availability = 1.0;
  warm.probe_availability = 1.0;
  warm.seed = 11;
  SimulatorConfig sim_config;
  sim_config.seed = 7;
  Simulator from_b(&net.topology, net.src, Addr("10.9.9.9"),
                   HostModel(warm), RttModel({}), sim_config);
  std::set<RouterId> from_a_set, union_set;
  for (std::uint32_t host = 1; host <= 3; ++host) {  // very sparse sample
    Ipv4Address dst(Addr("20.0.2.0").value() + host);
    from_a_set.insert(test::OracleLastHop(*net.simulator, dst, 0));
    union_set.insert(test::OracleLastHop(*net.simulator, dst, 0));
    union_set.insert(test::OracleLastHop(from_b, dst, 0));
  }
  EXPECT_GE(union_set.size(), from_a_set.size());
}

}  // namespace
}  // namespace hobbit::netsim
