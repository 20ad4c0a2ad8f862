#include "hobbit/prober.h"

#include <gtest/gtest.h>

#include "hobbit/hierarchy.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

using test::Addr;
using test::BuildMiniNet;
using test::FullBlock;
using test::MiniNet;
using test::Pfx;

TEST(BlockProber, SingleGatewayStopsAtSixAndClassifiesSame) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.1.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification, Classification::kSameLastHop);
  EXPECT_EQ(result.observations.size(), 6u);
  ASSERT_EQ(result.last_hop_set.size(), 1u);
  EXPECT_EQ(result.last_hop_set.front(),
            net.topology.router(net.gw1).reply_address);
}

TEST(BlockProber, PerDestLoadBalancedBlockIsNonHierarchical) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.2.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification, Classification::kNonHierarchical);
  EXPECT_EQ(result.last_hop_set.size(), 2u);
  EXPECT_TRUE(IsHomogeneous(result.classification));
}

TEST(BlockProber, SilentGatewayBlockIsUnresponsive) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.3.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification, Classification::kUnresponsiveLastHop);
  EXPECT_EQ(result.observations.size(), 0u);
  EXPECT_GT(result.lasthop_unresponsive, 0);
}

TEST(BlockProber, CarvedBlockIsDifferentButHierarchical) {
  MiniNet net = BuildMiniNet();
  // Without a confidence table the prober probes everything it has; the
  // carved /26 produces a nested grouping.
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.4.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification,
            Classification::kDifferentButHierarchical);
  EXPECT_EQ(result.last_hop_set.size(), 2u);
  auto groups = GroupByLastHop(result.observations);
  EXPECT_FALSE(IsAlignedDisjoint(groups))
      << "a nested carve is NOT the paper's aligned-disjoint case";
}

TEST(BlockProber, SplitBlockIsAlignedDisjoint) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.5.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.classification,
            Classification::kDifferentButHierarchical);
  auto groups = GroupByLastHop(result.observations);
  EXPECT_TRUE(IsAlignedDisjoint(groups));
  EXPECT_EQ(SubBlockComposition(groups), (std::vector<int>{25, 25}));
}

TEST(BlockProber, TooFewActiveWhenBlockIsNearlyEmpty) {
  MiniNet net = BuildMiniNet();
  // One active per /26 and no more: only four destinations to probe.
  probing::ZmapBlock block =
      test::ZmapBlockOf("20.0.1.0/24", {1, 65, 129, 193});
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result = prober.ProbeBlock(block, netsim::Rng(1));
  // Four usable destinations, one last hop, never reaches the 6-rule.
  EXPECT_EQ(result.classification, Classification::kTooFewActive);
}

TEST(BlockProber, ConfidenceTableStopsEarly) {
  MiniNet net = BuildMiniNet();
  // A saturated table that claims 95 % confidence at (2, 6).
  ConfidenceTable table;
  for (int i = 0; i < 1000; ++i) {
    for (int n = 6; n <= 256; ++n) table.Record(2, n, i < 960);
  }
  ProberOptions options;
  options.min_cell_trials = 100;
  BlockProber prober(net.simulator.get(), &table, options);
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.4.0/24"), netsim::Rng(1));
  // The carved block has two last hops arranged hierarchically; with the
  // table present, probing should stop near 6 usable addresses instead of
  // exhausting all 256.
  EXPECT_EQ(result.classification,
            Classification::kDifferentButHierarchical);
  EXPECT_LE(result.observations.size(), 24u);
}

TEST(BlockProber, ReprobeStrategyFindsWholeLastHopSet) {
  MiniNet net = BuildMiniNet();
  ProberOptions options;
  options.reprobe_strategy = true;
  BlockProber prober(net.simulator.get(), nullptr, options);
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.2.0/24"), netsim::Rng(1));
  EXPECT_EQ(result.last_hop_set.size(), 2u);
  // Reprobing does not stop at the first non-hierarchy: it probes until
  // MdaProbeCount(2)=11 consecutive destinations add nothing.
  EXPECT_GE(result.observations.size(), 12u);
}

TEST(BlockProber, ObservationsRespectSlash26Coverage) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult result =
      prober.ProbeBlock(FullBlock("20.0.1.0/24"), netsim::Rng(3));
  // Six destinations via round-robin across four /26s: at least one
  // destination from 3 distinct /26s is guaranteed.
  bool quarter[4] = {};
  for (const auto& obs : result.observations) {
    quarter[(obs.address.value() & 0xFF) >> 6] = true;
  }
  int covered = quarter[0] + quarter[1] + quarter[2] + quarter[3];
  EXPECT_GE(covered, 3);
}

TEST(BlockProber, DeterministicForSameSeed) {
  MiniNet net = BuildMiniNet();
  BlockProber prober_a(net.simulator.get(), nullptr, {});
  BlockProber prober_b(net.simulator.get(), nullptr, {});
  BlockResult a = prober_a.ProbeBlock(FullBlock("20.0.2.0/24"),
                                      netsim::Rng(77));
  BlockResult b = prober_b.ProbeBlock(FullBlock("20.0.2.0/24"),
                                      netsim::Rng(77));
  EXPECT_EQ(a.classification, b.classification);
  EXPECT_EQ(a.last_hop_set, b.last_hop_set);
  EXPECT_EQ(a.observations.size(), b.observations.size());
}

TEST(BlockProber, ProbesUsedMatchesSimulatorLoadOnEveryExitPath) {
  MiniNet net = BuildMiniNet();
  // A saturated confidence table so the confidence-stop path is reachable.
  ConfidenceTable table;
  for (int i = 0; i < 1000; ++i) {
    for (int n = 6; n <= 256; ++n) table.Record(2, n, i < 960);
  }
  ProberOptions with_table;
  with_table.min_cell_trials = 100;

  struct Case {
    const char* name;
    const char* prefix;
    const ConfidenceTable* table;
    ProberOptions options;
    Classification expected;
  };
  const Case cases[] = {
      // Early return inside the loop: six-destination rule.
      {"same-last-hop", "20.0.1.0/24", nullptr, {},
       Classification::kSameLastHop},
      // Early return inside the loop: non-hierarchical grouping.
      {"non-hierarchical", "20.0.2.0/24", nullptr, {},
       Classification::kNonHierarchical},
      // Loop exhausted with zero usable destinations.
      {"unresponsive", "20.0.3.0/24", nullptr, {},
       Classification::kUnresponsiveLastHop},
      // Confidence-rule break out of the loop.
      {"confidence-stop", "20.0.4.0/24", &table, with_table,
       Classification::kDifferentButHierarchical},
      // Loop exhausted with a hierarchical grouping, no table.
      {"exhausted", "20.0.5.0/24", nullptr, {},
       Classification::kDifferentButHierarchical},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BlockProber prober(net.simulator.get(), c.table, c.options);
    test::SendCounter sends(*net.simulator);
    BlockResult result = prober.ProbeBlock(FullBlock(c.prefix),
                                           netsim::Rng(1));
    const std::uint64_t delta = sends.count();
    EXPECT_EQ(result.classification, c.expected);
    // probes_used must equal the probes the simulator actually answered
    // for this block — recorded exactly once, on every exit path.
    EXPECT_EQ(static_cast<std::uint64_t>(result.probes_used), delta);
    EXPECT_EQ(prober.probes_sent(), delta);
  }
}

TEST(BlockProber, ProbesSentAccumulatesAcrossBlocks) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  BlockResult a = prober.ProbeBlock(FullBlock("20.0.1.0/24"),
                                    netsim::Rng(1));
  BlockResult b = prober.ProbeBlock(FullBlock("20.0.2.0/24"),
                                    netsim::Rng(1));
  EXPECT_EQ(prober.probes_sent(),
            static_cast<std::uint64_t>(a.probes_used) +
                static_cast<std::uint64_t>(b.probes_used));
}

TEST(BlockProber, ProbeBlockFullyUsesEveryUsableAddress) {
  MiniNet net = BuildMiniNet();
  BlockProber prober(net.simulator.get(), nullptr, {});
  FullyProbedBlock full =
      prober.ProbeBlockFully(FullBlock("20.0.2.0/24"), netsim::Rng(5));
  EXPECT_EQ(full.observations.size(), 256u);
  EXPECT_EQ(full.cardinality, 2);
  EXPECT_TRUE(full.homogeneous);
}

}  // namespace
}  // namespace hobbit::core
