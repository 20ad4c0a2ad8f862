#include "analysis/topo_discovery.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hobbit::analysis {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::MiniNet;

std::vector<netsim::Ipv4Address> SomeDestinations() {
  std::vector<netsim::Ipv4Address> out;
  for (std::uint32_t host = 1; host <= 24; ++host) {
    out.push_back(netsim::Ipv4Address(Addr("20.0.1.0").value() + host));
    out.push_back(netsim::Ipv4Address(Addr("20.0.2.0").value() + host));
  }
  return out;
}

TEST(CollectCorpus, RecordsLinksForReachableDestinations) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  auto destinations = SomeDestinations();
  TracerouteCorpus corpus =
      CollectCorpus(*net.simulator, memo, destinations);
  EXPECT_EQ(corpus.entries.size(), destinations.size());
  EXPECT_GT(corpus.total_links, 5u);
  for (const CorpusEntry& entry : corpus.entries) {
    EXPECT_FALSE(entry.links.empty()) << entry.destination.ToString();
  }
}

TEST(CollectCorpus, SkipsUnreachableDestinations) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  std::vector<netsim::Ipv4Address> destinations = {Addr("99.9.9.9")};
  TracerouteCorpus corpus =
      CollectCorpus(*net.simulator, memo, destinations);
  EXPECT_TRUE(corpus.entries.empty());
}

TEST(DiscoverySeries, CoverageIsMonotoneAndReachesOne) {
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  TracerouteCorpus corpus =
      CollectCorpus(*net.simulator, memo, SomeDestinations());
  // One stratum holding everything: k rounds add one entry each.
  std::vector<std::vector<std::uint32_t>> strata(1);
  for (std::uint32_t i = 0; i < corpus.entries.size(); ++i) {
    strata[0].push_back(i);
  }
  auto series = DiscoverySeries(corpus, strata, 2, netsim::Rng(3));
  ASSERT_FALSE(series.empty());
  double prev = 0;
  for (const SeriesPoint& point : series) {
    EXPECT_GE(point.link_ratio, prev);
    prev = point.link_ratio;
  }
  EXPECT_GT(series.back().link_ratio, 0.99);
}

TEST(DiscoverySeries, CoarserStrataNeedFewerSelections) {
  // The Fig 11 effect in miniature: selecting per aggregate block reaches
  // a target coverage with fewer destinations than selecting per /24.
  MiniNet net = BuildMiniNet();
  netsim::RouteMemo memo;
  TracerouteCorpus corpus =
      CollectCorpus(*net.simulator, memo, SomeDestinations());
  ASSERT_EQ(corpus.entries.size(), 48u);

  // Fine strata: one per /24 (indices interleave 20.0.1.x / 20.0.2.x).
  std::vector<std::vector<std::uint32_t>> per_24(2);
  // Coarse strata: both /24s share last-hop infrastructure heavily; one
  // stratum stands in for a Hobbit block covering them.
  std::vector<std::vector<std::uint32_t>> per_block(1);
  for (std::uint32_t i = 0; i < corpus.entries.size(); ++i) {
    bool first_24 =
        netsim::Prefix::Slash24Of(corpus.entries[i].destination) ==
        test::Pfx("20.0.1.0/24");
    per_24[first_24 ? 0 : 1].push_back(i);
    per_block[0].push_back(i);
  }
  auto fine = DiscoverySeries(corpus, per_24, 2, netsim::Rng(5), 0.95);
  auto coarse = DiscoverySeries(corpus, per_block, 2, netsim::Rng(5), 0.95);
  ASSERT_FALSE(fine.empty());
  ASSERT_FALSE(coarse.empty());
  // Both strategies must eventually clear the 95 % target, and at equal
  // average selections per /24 the coarse (block-level) curve must not be
  // materially worse — the two /24s share their infrastructure, which is
  // the situation where block-level selection saves probes.
  EXPECT_GE(fine.back().link_ratio, 0.95);
  EXPECT_GE(coarse.back().link_ratio, 0.95);
  auto ratio_at = [](const std::vector<SeriesPoint>& series, double x) {
    double best = 0;
    for (const auto& point : series) {
      if (point.avg_selected_per_24 <= x) best = point.link_ratio;
    }
    return best;
  };
  for (double x : {2.0, 4.0, 8.0}) {
    EXPECT_GE(ratio_at(coarse, x) + 0.15, ratio_at(fine, x)) << x;
  }
}

TEST(DiscoverySeries, EmptyCorpusGivesEmptySeries) {
  TracerouteCorpus corpus;
  std::vector<std::vector<std::uint32_t>> strata;
  EXPECT_TRUE(DiscoverySeries(corpus, strata, 2, netsim::Rng(1)).empty());
}

}  // namespace
}  // namespace hobbit::analysis
