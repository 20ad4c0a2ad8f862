// test_incremental_grouping.cpp — differential tests of the measurement
// fast path.  The incremental grouping state must agree with the batch
// reference (full regroup after every observation) on randomized
// sequences, and BlockProber must produce identical results whichever
// combination of fast-path toggles is enabled.
#include <algorithm>
#include <gtest/gtest.h>

#include "hobbit/hierarchy.h"
#include "hobbit/prober.h"
#include "netsim/rng.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

using test::BuildMiniNet;
using test::FullBlock;
using test::MiniNet;
using test::Pfx;

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

void ExpectSameResult(const BlockResult& fast, const BlockResult& reference,
                      const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fast.classification, reference.classification);
  EXPECT_EQ(fast.last_hop_set, reference.last_hop_set);
  EXPECT_EQ(fast.probes_used, reference.probes_used);
  EXPECT_EQ(fast.active_in_snapshot, reference.active_in_snapshot);
  EXPECT_EQ(fast.hosts_unresponsive, reference.hosts_unresponsive);
  EXPECT_EQ(fast.lasthop_unresponsive, reference.lasthop_unresponsive);
  ASSERT_EQ(fast.observations.size(), reference.observations.size());
  for (std::size_t i = 0; i < fast.observations.size(); ++i) {
    EXPECT_EQ(fast.observations[i].address,
              reference.observations[i].address);
    EXPECT_EQ(fast.observations[i].last_hops,
              reference.observations[i].last_hops);
  }
}

TEST(FastPathEquivalence, ProbeBlockIdenticalAcrossToggleCombinations) {
  MiniNet net = BuildMiniNet();
  // A saturated confidence table so the confidence-stop path is covered.
  ConfidenceTable table;
  for (int i = 0; i < 1000; ++i) {
    for (int n = 6; n <= 256; ++n) table.Record(2, n, i < 960);
  }
  const char* prefixes[] = {"20.0.1.0/24", "20.0.2.0/24", "20.0.3.0/24",
                            "20.0.4.0/24", "20.0.5.0/24"};
  const struct {
    bool incremental, memo;
  } combos[] = {{true, false}, {false, true}, {true, true}};

  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    for (const char* prefix : prefixes) {
      for (bool reprobe : {false, true}) {
        const ConfidenceTable* tables[] = {nullptr, &table};
        for (const ConfidenceTable* t : tables) {
          ProberOptions reference_options;
          reference_options.incremental_grouping = false;
          reference_options.route_memo = false;
          reference_options.reprobe_strategy = reprobe;
          reference_options.min_cell_trials = 100;
          BlockProber reference_prober(net.simulator.get(), t,
                                       reference_options);
          BlockResult reference = reference_prober.ProbeBlock(
              FullBlock(prefix), netsim::Rng(seed));

          for (const auto& combo : combos) {
            ProberOptions options = reference_options;
            options.incremental_grouping = combo.incremental;
            options.route_memo = combo.memo;
            BlockProber prober(net.simulator.get(), t, options);
            BlockResult fast =
                prober.ProbeBlock(FullBlock(prefix), netsim::Rng(seed));
            ExpectSameResult(fast, reference, prefix);
          }
        }
      }
    }
  }
}

TEST(FastPathEquivalence, ProbeBlockFullyIdenticalWithMemo) {
  MiniNet net = BuildMiniNet();
  ProberOptions slow;
  slow.route_memo = false;
  ProberOptions fast;
  fast.route_memo = true;
  BlockProber slow_prober(net.simulator.get(), nullptr, slow);
  BlockProber fast_prober(net.simulator.get(), nullptr, fast);
  for (const char* prefix : {"20.0.2.0/24", "20.0.4.0/24"}) {
    FullyProbedBlock a =
        slow_prober.ProbeBlockFully(FullBlock(prefix), netsim::Rng(5));
    FullyProbedBlock b =
        fast_prober.ProbeBlockFully(FullBlock(prefix), netsim::Rng(5));
    EXPECT_EQ(a.homogeneous, b.homogeneous);
    EXPECT_EQ(a.cardinality, b.cardinality);
    ASSERT_EQ(a.observations.size(), b.observations.size());
    for (std::size_t i = 0; i < a.observations.size(); ++i) {
      EXPECT_EQ(a.observations[i].address, b.observations[i].address);
      EXPECT_EQ(a.observations[i].last_hops, b.observations[i].last_hops);
    }
  }
}

}  // namespace
}  // namespace hobbit::core
