#include "hobbit/confidence.h"

#include <gtest/gtest.h>

#include "netsim/rng.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

using test::Addr;

TEST(ConfidenceTable, RecordAndLookup) {
  ConfidenceTable table;
  table.Record(2, 8, true);
  table.Record(2, 8, true);
  table.Record(2, 8, false);
  table.Record(2, 8, true);
  auto c = table.Confidence(2, 8);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(*c, 0.75);
  EXPECT_EQ(table.Trials(2, 8), 4u);
}

TEST(ConfidenceTable, EmptyCellHasNoValue) {
  ConfidenceTable table;
  EXPECT_FALSE(table.Confidence(3, 10).has_value());
}

TEST(ConfidenceTable, MinTrialsGate) {
  ConfidenceTable table;
  for (int i = 0; i < 10; ++i) table.Record(2, 6, true);
  EXPECT_TRUE(table.Confidence(2, 6, 10).has_value());
  EXPECT_FALSE(table.Confidence(2, 6, 11).has_value());
}

TEST(ConfidenceTable, RequiredProbesFindsFirstQualifyingCell) {
  ConfidenceTable table;
  for (int i = 0; i < 100; ++i) {
    table.Record(2, 4, i < 50);   // 0.50
    table.Record(2, 8, i < 90);   // 0.90
    table.Record(2, 12, i < 97);  // 0.97
  }
  auto n = table.RequiredProbes(2, 0.95);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 12);
  EXPECT_FALSE(table.RequiredProbes(2, 0.99).has_value());
}

TEST(ConfidenceTable, OutOfRangeClampsToBoundary) {
  ConfidenceTable table;
  table.Record(1000, 10000, true);
  EXPECT_TRUE(table
                  .Confidence(ConfidenceTable::kMaxCardinality,
                              ConfidenceTable::kMaxProbed)
                  .has_value());
}

/// Builds a synthetic homogeneous block: `total` addresses whose last hop
/// alternates between `cardinality` routers by stable hash, which a full
/// observation set reads as non-hierarchical.
FullyProbedBlock SyntheticBlock(int total, int cardinality,
                                std::uint64_t seed) {
  FullyProbedBlock block;
  block.prefix = test::Pfx("20.0.0.0/24");
  for (int i = 0; i < total; ++i) {
    netsim::Ipv4Address address(Addr("20.0.0.0").value() +
                                static_cast<std::uint32_t>(i));
    auto which = netsim::StableHash({seed, address.value()}) %
                 static_cast<std::uint64_t>(cardinality);
    netsim::Ipv4Address router(
        Addr("10.0.0.0").value() + static_cast<std::uint32_t>(which) + 1);
    block.observations.push_back({address, {router}});
  }
  block.cardinality = cardinality;
  block.homogeneous = true;
  return block;
}

TEST(ConfidenceTable, BuildProducesMonotonicConfidence) {
  std::vector<FullyProbedBlock> dataset;
  for (std::uint64_t s = 0; s < 40; ++s) {
    dataset.push_back(SyntheticBlock(64, 2, s));
  }
  ConfidenceTable table =
      ConfidenceTable::Build(dataset, netsim::Rng(5), 800);

  // With cardinality 2, confidence should grow with the number of probed
  // addresses (Fig 4's monotone trend).
  auto c6 = table.Confidence(2, 6, 100);
  auto c16 = table.Confidence(2, 16, 100);
  auto c32 = table.Confidence(2, 32, 100);
  ASSERT_TRUE(c6 && c16 && c32);
  EXPECT_LT(*c6, *c16);
  EXPECT_LT(*c16, *c32);
  // First-passage probability for two interleaved groups approaches 1
  // slowly (a nested arrangement is sticky); ~0.9 by 32 probes.
  EXPECT_GT(*c32, 0.85);
}

TEST(ConfidenceTable, BuildSkipsHeterogeneousAndTinyBlocks) {
  std::vector<FullyProbedBlock> dataset;
  FullyProbedBlock het = SyntheticBlock(64, 2, 1);
  het.homogeneous = false;
  dataset.push_back(het);
  FullyProbedBlock tiny = SyntheticBlock(3, 2, 2);
  dataset.push_back(tiny);
  ConfidenceTable table =
      ConfidenceTable::Build(dataset, netsim::Rng(5), 200);
  // Nothing should have been recorded.
  for (int c = 1; c <= 4; ++c) {
    for (int n = 1; n <= 64; ++n) {
      EXPECT_EQ(table.Trials(c, n), 0u);
    }
  }
}

TEST(ConfidenceTable, FewProbesAtHighCardinalityMeansLowConfidence) {
  // Fig 4's low-probe regime: when the number of probed addresses barely
  // exceeds the observed cardinality, the groups are near-singletons,
  // their ranges disjoint, and Hobbit cannot have seen a non-hierarchy —
  // so confidence at (high c, small n) must be far below confidence at
  // (low c, same n).
  std::vector<FullyProbedBlock> dataset;
  for (std::uint64_t s = 0; s < 60; ++s) {
    dataset.push_back(SyntheticBlock(128, 2, s));
    dataset.push_back(SyntheticBlock(128, 6, s + 1000));
  }
  ConfidenceTable table =
      ConfidenceTable::Build(dataset, netsim::Rng(9), 800);
  auto low_c = table.Confidence(2, 8, 100);
  auto high_c = table.Confidence(6, 8, 100);
  ASSERT_TRUE(low_c.has_value());
  ASSERT_TRUE(high_c.has_value());
  EXPECT_GT(*low_c, *high_c + 0.3);
  // Observing 8 distinct last hops after 8 probes means every group is a
  // point: a non-hierarchy can never have been seen.
  auto saturated = table.Confidence(8, 8, 50);
  if (saturated) {
    EXPECT_LT(*saturated, 0.05);
  }
}

}  // namespace
}  // namespace hobbit::core
