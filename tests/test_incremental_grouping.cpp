// test_incremental_grouping.cpp — differential tests of the measurement
// fast path.  The incremental grouping state must agree with the batch
// oracle (tests/grouping_oracle.h: a full regroup after every
// observation) on randomized sequences and on every prefix of a
// campaign's real observation sequences, and a last-hop prober must
// return identical results with and without a route memo.
#include <algorithm>
#include <gtest/gtest.h>
#include <string>

#include "grouping_oracle.h"
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

/// The oracle's groups as AddressGroups, member_count = distinct members.
std::vector<AddressGroup> OracleAddressGroups(
    std::span<const AddressObservation> observations) {
  std::vector<AddressGroup> groups;
  for (const auto& [router, members] : test::OracleGroups(observations)) {
    groups.push_back({router, members.front(), members.back(),
                      members.size()});
  }
  return groups;
}

/// Some router in every observation's last-hop set, straight from the
/// definition.
bool OracleCommonLastHop(std::span<const AddressObservation> observations) {
  for (const auto& [router, members] : test::OracleGroups(observations)) {
    if (std::all_of(observations.begin(), observations.end(),
                    [&](const AddressObservation& obs) {
                      return std::binary_search(obs.last_hops.begin(),
                                                obs.last_hops.end(), router);
                    })) {
      return true;
    }
  }
  return false;
}

/// Checks every verdict of `incremental`, which has folded exactly
/// `observations`, and of the folding free functions against the oracle.
/// `distinct` says every address appears once, so member counts are
/// comparable.  Returns the oracle's aligned-disjoint verdict.
bool ExpectMatchesOracle(const IncrementalGrouping& incremental,
                         std::span<const AddressObservation> observations,
                         bool distinct, const std::string& where) {
  SCOPED_TRACE(where);
  const auto oracle = test::OracleGroups(observations);
  const std::vector<AddressGroup> want = OracleAddressGroups(observations);
  for (const std::vector<AddressGroup>& got :
       {incremental.Groups(), GroupByLastHop(observations)}) {
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].router, want[i].router);
      EXPECT_EQ(got[i].min, want[i].min);
      EXPECT_EQ(got[i].max, want[i].max);
      if (distinct) {
        EXPECT_EQ(got[i].member_count, want[i].member_count);
      }
    }
  }
  const bool common = OracleCommonLastHop(observations);
  EXPECT_EQ(incremental.HasCommonLastHop(), common);
  EXPECT_EQ(HaveCommonLastHop(observations), common);
  const bool homogeneous =
      !want.empty() &&
      (want.size() == 1 || common || !GroupsAreHierarchical(want));
  EXPECT_EQ(HobbitSaysHomogeneous(observations), homogeneous);
  // §4.2's "at least two members" rule, on the oracle's distinct members,
  // against the fold's min < max.
  const bool aligned =
      std::all_of(oracle.begin(), oracle.end(),
                  [](const auto& group) { return group.second.size() >= 2; })
      && IsAlignedDisjoint(want);
  EXPECT_EQ(IsAlignedDisjoint(incremental.Groups()), aligned);
  return aligned;
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

      auto groups = OracleAddressGroups(observations);
      ASSERT_EQ(incremental.group_count(), groups.size())
          << "trial " << trial << " step " << s;
      const bool batch_hierarchical = GroupsAreHierarchical(groups);
      ASSERT_EQ(incremental.Hierarchical(), batch_hierarchical)
          << "trial " << trial << " step " << s;
      (batch_hierarchical ? hierarchical_seen : non_hierarchical_seen)++;
      ExpectMatchesOracle(incremental, observations, /*distinct=*/false,
                          "trial " + std::to_string(trial) + " step " +
                              std::to_string(s));
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

TEST(IncrementalGrouping, MatchesOracleWithDuplicatesAndEmptyLastHops) {
  // Re-observed addresses (under the same or another last hop) and
  // observations with no identified last hop.  Member counts then stop
  // being distinct-member counts; every verdict must still match the
  // oracle, the aligned-disjoint one included.
  netsim::Rng rng(20261018);
  int aligned_seen = 0;
  int common_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int router_pool = 1 + static_cast<int>(rng.NextBelow(4));
    const int steps = 1 + static_cast<int>(rng.NextBelow(24));
    std::vector<AddressObservation> observations;
    IncrementalGrouping incremental;
    for (int s = 0; s < steps; ++s) {
      AddressObservation obs =
          RandomObservation(rng, router_pool, /*structured=*/true);
      if (rng.NextBool(0.1)) {
        obs.last_hops.clear();
      } else if (!observations.empty() && rng.NextBool(0.3)) {
        obs.address = observations[rng.NextBelow(observations.size())].address;
      }
      observations.push_back(obs);
      incremental.Add(obs);
      ASSERT_EQ(incremental.group_count(),
                OracleAddressGroups(observations).size());
      aligned_seen += ExpectMatchesOracle(
          incremental, observations, /*distinct=*/false,
          "trial " + std::to_string(trial) + " step " + std::to_string(s));
      common_seen += incremental.HasCommonLastHop();
    }
  }
  EXPECT_GT(aligned_seen, 20);
  EXPECT_GT(common_seen, 20);
}

TEST(IncrementalGrouping, ReobservedAddressIsNotASecondMember) {
  // r1 sees 20.0.1.2 twice: two observations, one distinct member, a /32
  // span with no route-entry evidence — so no aligned-disjoint verdict.
  const netsim::Ipv4Address r1(0x0A000001u);
  const netsim::Ipv4Address r2(0x0A000002u);
  std::vector<AddressObservation> observations = {
      {netsim::Ipv4Address(0x14000102u), {r1}},
      {netsim::Ipv4Address(0x14000102u), {r1}},
      {netsim::Ipv4Address(0x14000181u), {r2}},
      {netsim::Ipv4Address(0x140001FEu), {r2}}};
  IncrementalGrouping grouping;
  for (const AddressObservation& obs : observations) grouping.Add(obs);
  const std::vector<AddressGroup> groups = grouping.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].member_count, 2u);
  EXPECT_FALSE(IsAlignedDisjoint(groups));
  EXPECT_FALSE(
      ExpectMatchesOracle(grouping, observations, /*distinct=*/false, ""));
  // Clear forgets the common last hop with the ranges.
  EXPECT_FALSE(grouping.HasCommonLastHop());
  grouping.Clear();
  grouping.Add(observations[2]);
  EXPECT_TRUE(grouping.HasCommonLastHop());
}

TEST(FastPathEquivalence, GroupingMatchesBatchOnEveryObservationPrefix) {
  // ProbeBlock decides after every observation from IncrementalGrouping.
  // On real observation sequences — a campaign's, every block, every
  // prefix of its sequence — that state must give the verdicts of the
  // batch oracle over the same prefix.
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(37));
  PipelineConfig config;
  config.seed = 37;
  config.calibration_blocks = 40;
  config.samples_per_block = 32;
  const PipelineResult campaign = RunPipeline(internet, config);
  ASSERT_FALSE(campaign.results.empty());
  int non_hierarchical_seen = 0;
  int aligned_seen = 0;
  for (const BlockResult& block : campaign.results) {
    IncrementalGrouping incremental;
    std::vector<AddressObservation> prefix;
    for (const AddressObservation& observation : block.observations) {
      prefix.push_back(observation);
      incremental.Add(observation);
      const auto groups = OracleAddressGroups(prefix);
      ASSERT_EQ(incremental.group_count(), groups.size())
          << block.prefix.ToString() << " after " << prefix.size();
      const bool hierarchical = GroupsAreHierarchical(groups);
      ASSERT_EQ(incremental.Hierarchical(), hierarchical)
          << block.prefix.ToString() << " after " << prefix.size();
      if (!hierarchical) ++non_hierarchical_seen;
      // A probed block observes each address once.
      aligned_seen += ExpectMatchesOracle(
          incremental, prefix, /*distinct=*/true,
          block.prefix.ToString() + " after " + std::to_string(prefix.size()));
    }
  }
  // The campaign must reach the non-hierarchical verdict, not only the
  // vacuous one, and the aligned-disjoint one.
  EXPECT_GT(non_hierarchical_seen, 0);
  EXPECT_GT(aligned_seen, 0);
}

TEST(FastPathEquivalence, LastHopProberIdenticalWithAndWithoutMemo) {
  // The route memo is BlockProber's only fast path on the wire: a
  // LastHopProber whose one memo spans every block, as in BlockProber,
  // must return exactly what a prober given a fresh memo for each
  // destination returns, destination by destination, under both MDA
  // stopping rules.
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
    netsim::RouteMemo fresh;
    probing::LastHopProber direct(net.simulator.get(), fresh, mode);
    std::vector<probing::LastHopResult> want;
    for (netsim::Ipv4Address destination : destinations) {
      fresh = netsim::RouteMemo();
      want.push_back(direct.Probe(destination));
    }
    netsim::RouteMemo memo;
    probing::LastHopProber memoized(net.simulator.get(), memo, mode);
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
