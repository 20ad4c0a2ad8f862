// test_incremental_grouping.cpp — differential tests of the measurement
// fast path.  The incremental grouping state must agree with the batch
// reference (full regroup after every observation) on randomized
// sequences and on every prefix of a campaign's real observation
// sequences, and a last-hop prober must return identical results with
// and without a route memo.
#include <algorithm>
#include <gtest/gtest.h>

#include "hobbit/hierarchy.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "netsim/route_memo.h"
#include "probing/last_hop.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

using test::BuildMiniNet;
using test::MiniNet;

void InsertSortedUnique(LastHopSet& set, netsim::Ipv4Address value) {
  auto pos = std::lower_bound(set.begin(), set.end(), value);
  if (pos == set.end() || *pos != value) set.insert(pos, value);
}

/// Random observation inside a nominal /24.  `structured` draws each
/// router's members from a dedicated /26-sized sub-range (laminar by
/// construction, until multi-interface observations blur the ranges);
/// unstructured draws interleave addresses freely (usually
/// non-hierarchical).  Duplicate destinations are frequent by design.
AddressObservation RandomObservation(netsim::Rng& rng, int router_pool,
                                     bool structured) {
  AddressObservation obs;
  const auto router_index =
      static_cast<std::uint32_t>(rng.NextBelow(router_pool));
  const std::uint32_t low =
      structured
          ? router_index * 64 + static_cast<std::uint32_t>(rng.NextBelow(64))
          : static_cast<std::uint32_t>(rng.NextBelow(256));
  obs.address = netsim::Ipv4Address(0x14000100u | (low & 0xFF));
  InsertSortedUnique(obs.last_hops,
                     netsim::Ipv4Address(0x0A000001u + router_index));
  // Multi-interface last hops (per-flow diversity at the final hop).
  while (rng.NextBool(0.25)) {
    InsertSortedUnique(
        obs.last_hops,
        netsim::Ipv4Address(0x0A000001u + static_cast<std::uint32_t>(
                                              rng.NextBelow(router_pool))));
  }
  return obs;
}

TEST(IncrementalGrouping, MatchesBatchGroupingOnRandomSequences) {
  netsim::Rng rng(20260806);
  int non_hierarchical_seen = 0;
  int hierarchical_seen = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int router_pool = 1 + static_cast<int>(rng.NextBelow(4));
    const bool structured = rng.NextBool(0.5);
    const int steps = 1 + static_cast<int>(rng.NextBelow(48));

    std::vector<AddressObservation> observations;
    IncrementalGrouping incremental;
    for (int s = 0; s < steps; ++s) {
      // Re-adding an earlier observation exercises the duplicate path.
      if (!observations.empty() && rng.NextBool(0.15)) {
        observations.push_back(
            observations[rng.NextBelow(observations.size())]);
      } else {
        observations.push_back(
            RandomObservation(rng, router_pool, structured));
      }
      incremental.Add(observations.back());

      auto groups = GroupByLastHop(observations);
      ASSERT_EQ(incremental.group_count(), groups.size())
          << "trial " << trial << " step " << s;
      const bool batch_hierarchical = GroupsAreHierarchical(groups);
      ASSERT_EQ(incremental.Hierarchical(), batch_hierarchical)
          << "trial " << trial << " step " << s;
      (batch_hierarchical ? hierarchical_seen : non_hierarchical_seen)++;
    }
  }
  // The generator must actually exercise both verdicts.
  EXPECT_GT(hierarchical_seen, 100);
  EXPECT_GT(non_hierarchical_seen, 100);
}

TEST(IncrementalGrouping, ClearResetsToVacuouslyHierarchical) {
  IncrementalGrouping grouping;
  AddressObservation a;
  a.address = netsim::Ipv4Address(0x14000101u);
  a.last_hops = {netsim::Ipv4Address(0x0A000001u)};
  AddressObservation b;
  b.address = netsim::Ipv4Address(0x14000103u);
  b.last_hops = {netsim::Ipv4Address(0x0A000002u)};
  AddressObservation c;
  c.address = netsim::Ipv4Address(0x14000102u);
  c.last_hops = {netsim::Ipv4Address(0x0A000001u)};
  grouping.Add(a);
  grouping.Add(b);
  grouping.Add(c);  // ranges [1,2] and [3,3]... then a=1,c=2 overlap b
  EXPECT_EQ(grouping.group_count(), 2u);
  grouping.Clear();
  EXPECT_EQ(grouping.group_count(), 0u);
  EXPECT_TRUE(grouping.Hierarchical());
}

TEST(IncrementalGrouping, NonLaminarityIsNotLatched) {
  // Two groups that partially overlap (non-hierarchical), then one grows
  // to fully contain the other (hierarchical again).  The incremental
  // verdict must follow the recovery, exactly like a fresh batch check.
  IncrementalGrouping grouping;
  const netsim::Ipv4Address r1(0x0A000001u);
  const netsim::Ipv4Address r2(0x0A000002u);
  auto obs = [](netsim::Ipv4Address router, std::uint32_t low) {
    AddressObservation o;
    o.address = netsim::Ipv4Address(0x14000100u + low);
    o.last_hops = {router};
    return o;
  };
  grouping.Add(obs(r1, 10));
  grouping.Add(obs(r1, 20));
  grouping.Add(obs(r2, 15));
  grouping.Add(obs(r2, 30));  // r1:[10,20], r2:[15,30] -> partial overlap
  EXPECT_FALSE(grouping.Hierarchical());
  grouping.Add(obs(r1, 40));  // r1:[10,40] now contains r2:[15,30]
  EXPECT_TRUE(grouping.Hierarchical());
}

TEST(FastPathEquivalence, GroupingMatchesBatchOnEveryObservationPrefix) {
  // ProbeBlock decides after every observation from IncrementalGrouping.
  // On real observation sequences — a campaign's, every block, every
  // prefix of its sequence — that state must give the batch verdict of
  // GroupByLastHop over the same prefix.
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(37));
  PipelineConfig config;
  config.seed = 37;
  config.calibration_blocks = 40;
  config.samples_per_block = 32;
  const PipelineResult campaign = RunPipeline(internet, config);
  ASSERT_FALSE(campaign.results.empty());
  int non_hierarchical_seen = 0;
  for (const BlockResult& block : campaign.results) {
    IncrementalGrouping incremental;
    std::vector<AddressObservation> prefix;
    for (const AddressObservation& observation : block.observations) {
      prefix.push_back(observation);
      incremental.Add(observation);
      const auto groups = GroupByLastHop(prefix);
      ASSERT_EQ(incremental.group_count(), groups.size())
          << block.prefix.ToString() << " after " << prefix.size();
      const bool hierarchical = GroupsAreHierarchical(groups);
      ASSERT_EQ(incremental.Hierarchical(), hierarchical)
          << block.prefix.ToString() << " after " << prefix.size();
      if (!hierarchical) ++non_hierarchical_seen;
    }
  }
  // The campaign must reach the non-hierarchical verdict, not only the
  // vacuous one.
  EXPECT_GT(non_hierarchical_seen, 0);
}

TEST(FastPathEquivalence, LastHopProberIdenticalWithAndWithoutMemo) {
  // The route memo is BlockProber's only fast path on the wire: a
  // LastHopProber with one must return exactly what a prober without one
  // returns, destination by destination, under both MDA stopping rules.
  // One memo spans every block, as in BlockProber.
  MiniNet net = BuildMiniNet();
  std::vector<netsim::Ipv4Address> destinations;
  for (const char* base : {"20.0.1.0", "20.0.2.0", "20.0.3.0", "20.0.4.0",
                           "20.0.5.0"}) {
    for (std::uint32_t octet = 0; octet < 256; ++octet) {
      destinations.emplace_back(test::Addr(base).value() | octet);
    }
  }
  for (probing::MdaMode mode :
       {probing::MdaMode::kFull, probing::MdaMode::kLite}) {
    probing::LastHopProber direct(net.simulator.get(), nullptr, mode);
    std::vector<probing::LastHopResult> want;
    for (netsim::Ipv4Address destination : destinations) {
      want.push_back(direct.Probe(destination));
    }
    netsim::RouteMemo memo;
    probing::LastHopProber memoized(net.simulator.get(), &memo, mode);
    for (std::size_t i = 0; i < destinations.size(); ++i) {
      const probing::LastHopResult got = memoized.Probe(destinations[i]);
      SCOPED_TRACE(destinations[i].ToString());
      ASSERT_EQ(got.status, want[i].status);
      ASSERT_EQ(got.last_hops, want[i].last_hops);
      ASSERT_EQ(got.host_hop, want[i].host_hop);
      ASSERT_EQ(got.probes_used, want[i].probes_used);
    }
    EXPECT_EQ(memoized.probes_sent(), direct.probes_sent());
    EXPECT_GT(memo.hits(), 0u);
  }
}

}  // namespace
}  // namespace hobbit::core
