#include "cluster/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "test_util.h"

namespace hobbit::cluster {
namespace {

using test::Addr;
using test::Pfx;

core::BlockResult Homog(const char* prefix,
                        std::vector<netsim::Ipv4Address> last_hops) {
  core::BlockResult r;
  r.prefix = Pfx(prefix);
  r.classification = core::Classification::kNonHierarchical;
  std::sort(last_hops.begin(), last_hops.end());
  r.last_hop_set = std::move(last_hops);
  return r;
}

TEST(AggregateIdentical, MergesIdenticalSetsOnly) {
  core::BlockResult a = Homog("20.0.1.0/24", {Addr("10.0.0.1")});
  core::BlockResult b = Homog("20.0.9.0/24", {Addr("10.0.0.1")});
  core::BlockResult c =
      Homog("20.0.2.0/24", {Addr("10.0.0.1"), Addr("10.0.0.2")});
  std::vector<const core::BlockResult*> blocks = {&a, &b, &c};
  auto aggregates = AggregateIdentical(blocks);
  ASSERT_EQ(aggregates.size(), 2u);
  // Sorted by descending size: {a, b} first.
  EXPECT_EQ(aggregates[0].member_24s.size(), 2u);
  EXPECT_EQ(aggregates[0].member_24s[0], Pfx("20.0.1.0/24"));
  EXPECT_EQ(aggregates[0].member_24s[1], Pfx("20.0.9.0/24"));
  EXPECT_EQ(aggregates[1].member_24s.size(), 1u);
}

TEST(AggregateIdentical, SetIdentityRequiresSameSizeAndElements) {
  // The paper's footnote 9: identical == equal size and same elements.
  core::BlockResult a =
      Homog("20.0.1.0/24", {Addr("10.0.0.1"), Addr("10.0.0.2")});
  core::BlockResult b = Homog("20.0.2.0/24", {Addr("10.0.0.1")});
  std::vector<const core::BlockResult*> blocks = {&a, &b};
  EXPECT_EQ(AggregateIdentical(blocks).size(), 2u);
}

TEST(AggregateIdentical, SkipsEmptySets) {
  core::BlockResult empty;
  empty.prefix = Pfx("20.0.3.0/24");
  empty.classification = core::Classification::kNonHierarchical;
  std::vector<const core::BlockResult*> blocks = {&empty};
  EXPECT_TRUE(AggregateIdentical(blocks).empty());
}

AggregateBlock Agg(std::vector<const char*> prefixes,
                   std::vector<const char*> routers) {
  AggregateBlock block;
  for (const char* p : prefixes) block.member_24s.push_back(Pfx(p));
  for (const char* r : routers) block.last_hops.push_back(Addr(r));
  std::sort(block.member_24s.begin(), block.member_24s.end());
  std::sort(block.last_hops.begin(), block.last_hops.end());
  return block;
}

TEST(SimilarityGraph, PaperExampleScore) {
  // §6.3: A={1.1.1.1, 2.2.2.2, 3.3.3.3}, B={3.3.3.3, 4.4.4.4} -> 1/3.
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"1.1.1.1", "2.2.2.2", "3.3.3.3"}),
      Agg({"20.0.2.0/24"}, {"3.3.3.3", "4.4.4.4"})};
  Graph graph = BuildSimilarityGraph(aggregates);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_NEAR(graph.edges.front().weight, 1.0 / 3.0, 1e-12);
}

TEST(SimilarityGraph, DisjointSetsGetNoEdge) {
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"1.1.1.1"}),
      Agg({"20.0.2.0/24"}, {"2.2.2.2"})};
  Graph graph = BuildSimilarityGraph(aggregates);
  EXPECT_TRUE(graph.edges.empty());
  EXPECT_EQ(graph.vertex_count, 2u);
}

TEST(SimilarityGraph, NoDuplicateEdgesWhenSharingManyRouters) {
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"1.1.1.1", "2.2.2.2", "3.3.3.3"}),
      Agg({"20.0.2.0/24"}, {"1.1.1.1", "2.2.2.2", "4.4.4.4"})};
  Graph graph = BuildSimilarityGraph(aggregates);
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_NEAR(graph.edges.front().weight, 2.0 / 3.0, 1e-12);
}

// Brute-force oracle: every pair a < b, weighted |A ∩ B| / max(|A|, |B|)
// by a plain merge intersection, emitted when the weight is positive.
Graph AllPairsSimilarityGraph(std::span<const AggregateBlock> aggregates) {
  Graph graph;
  graph.vertex_count = static_cast<std::uint32_t>(aggregates.size());
  for (std::uint32_t a = 0; a < graph.vertex_count; ++a) {
    for (std::uint32_t b = a + 1; b < graph.vertex_count; ++b) {
      const auto& x = aggregates[a].last_hops;
      const auto& y = aggregates[b].last_hops;
      std::size_t i = 0, j = 0, common = 0;
      while (i < x.size() && j < y.size()) {
        if (x[i] < y[j]) {
          ++i;
        } else if (y[j] < x[i]) {
          ++j;
        } else {
          ++common;
          ++i;
          ++j;
        }
      }
      const double weight = static_cast<double>(common) /
                            static_cast<double>(std::max(x.size(), y.size()));
      if (weight > 0.0) graph.edges.push_back({a, b, weight});
    }
  }
  return graph;
}

/// Aggregates with overlapping last-hop sets drawn from a small router
/// pool, so the graph has edges in every shard's vertex chunk.
std::vector<AggregateBlock> RandomAggregates(std::size_t count) {
  netsim::Rng rng(97);
  std::vector<AggregateBlock> aggregates(count);
  for (std::size_t i = 0; i < count; ++i) {
    AggregateBlock& block = aggregates[i];
    block.member_24s.push_back(netsim::Prefix::Of(
        netsim::Ipv4Address(static_cast<std::uint32_t>((i + 1) << 8)), 24));
    const std::size_t hops = 2 + rng.NextBelow(4);
    while (block.last_hops.size() < hops) {
      const netsim::Ipv4Address hop(
          0x0A000000u + static_cast<std::uint32_t>(rng.NextBelow(40)));
      if (std::find(block.last_hops.begin(), block.last_hops.end(), hop) ==
          block.last_hops.end()) {
        block.last_hops.push_back(hop);
      }
    }
    std::sort(block.last_hops.begin(), block.last_hops.end());
  }
  return aggregates;
}

// The inverted-index build must emit the oracle's edge list element for
// element — same (a, b) order, same exact weights — at every thread
// count.
TEST(SimilarityGraph, MatchesAllPairsOracleAcrossThreadCounts) {
  const auto aggregates = RandomAggregates(160);
  const Graph oracle = AllPairsSimilarityGraph(aggregates);
  ASSERT_GT(oracle.edges.size(), 0u);
  test::ForEachPool({1, 2, 7}, [&](common::ThreadPool* pool) {
    const Graph graph = BuildSimilarityGraph(aggregates, pool);
    EXPECT_EQ(graph.vertex_count, oracle.vertex_count);
    ASSERT_EQ(graph.edges.size(), oracle.edges.size());
    for (std::size_t e = 0; e < oracle.edges.size(); ++e) {
      EXPECT_EQ(graph.edges[e].a, oracle.edges[e].a) << e;
      EXPECT_EQ(graph.edges[e].b, oracle.edges[e].b) << e;
      EXPECT_EQ(graph.edges[e].weight, oracle.edges[e].weight) << e;
    }
  });
}

TEST(MclAggregation, OverlappingFamilesCluster) {
  // Three aggregates drawn from one true gateway pool {A,B,C}: partial
  // sets {A,B}, {B,C}, {A,C} must cluster together; an unrelated
  // aggregate must stay out.
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"10.0.0.1", "10.0.0.2"}),
      Agg({"20.0.2.0/24"}, {"10.0.0.2", "10.0.0.3"}),
      Agg({"20.0.3.0/24"}, {"10.0.0.1", "10.0.0.3"}),
      Agg({"20.0.9.0/24"}, {"10.0.0.9"})};
  MclAggregationResult result = RunMclAggregation(aggregates);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.clusters.front().aggregate_ids,
            (std::vector<std::uint32_t>{0, 1, 2}));
  ASSERT_EQ(result.unclustered.size(), 1u);
  EXPECT_EQ(result.unclustered.front(), 3u);
  EXPECT_EQ(result.component_count, 2u);
}

TEST(MclAggregation, RuleMatchesTightClusters) {
  // Tight family: every pairwise similarity is 1/2 or better.
  std::vector<AggregateBlock> tight = {
      Agg({"20.0.1.0/24", "20.0.2.0/24"}, {"10.0.0.1", "10.0.0.2"}),
      Agg({"20.0.3.0/24", "20.0.4.0/24"}, {"10.0.0.1", "10.0.0.2",
                                           "10.0.0.3"})};
  MclAggregationParams params;
  MclAggregationResult result = RunMclAggregation(tight, params);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_TRUE(result.clusters.front().matches_rule);
}

TEST(MclAggregation, RuleRejectsLooseClusters) {
  // A long chain sharing one router pairwise out of many: low scores.
  std::vector<AggregateBlock> loose = {
      Agg({"20.0.1.0/24"}, {"10.0.0.1", "10.0.0.11", "10.0.0.12",
                            "10.0.0.13"}),
      Agg({"20.0.2.0/24"}, {"10.0.0.1", "10.0.0.21", "10.0.0.22",
                            "10.0.0.23"}),
      Agg({"20.0.3.0/24"}, {"10.0.0.1", "10.0.0.31", "10.0.0.32",
                            "10.0.0.33"})};
  MclAggregationResult result = RunMclAggregation(loose);
  for (const auto& cluster : result.clusters) {
    EXPECT_FALSE(cluster.matches_rule);
  }
}

TEST(MergeValidated, OnlyValidatedClustersMerge) {
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"10.0.0.1", "10.0.0.2"}),
      Agg({"20.0.2.0/24"}, {"10.0.0.2", "10.0.0.3"}),
      Agg({"20.0.9.0/24"}, {"10.0.0.9"})};
  MclAggregationResult result;
  ClusterInfo cluster;
  cluster.aggregate_ids = {0, 1};
  cluster.validated_homogeneous = true;
  result.clusters.push_back(cluster);
  result.unclustered = {2};

  auto merged = MergeValidatedClusters(aggregates, result);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].member_24s.size(), 2u);
  // Union of last-hop sets.
  EXPECT_EQ(merged[0].last_hops.size(), 3u);
  EXPECT_EQ(merged[1].member_24s.size(), 1u);
}

TEST(MergeValidated, UnvalidatedClusterStaysSplit) {
  std::vector<AggregateBlock> aggregates = {
      Agg({"20.0.1.0/24"}, {"10.0.0.1", "10.0.0.2"}),
      Agg({"20.0.2.0/24"}, {"10.0.0.2", "10.0.0.3"})};
  MclAggregationResult result;
  ClusterInfo cluster;
  cluster.aggregate_ids = {0, 1};
  cluster.validated_homogeneous = false;
  result.clusters.push_back(cluster);
  auto merged = MergeValidatedClusters(aggregates, result);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(ValidateClusters, EndToEndOnTinyInternet) {
  // Full-stack: pipeline -> exact aggregation -> MCL -> reprobing.
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(31));
  core::PipelineConfig config;
  config.seed = 31;
  config.calibration_blocks = 50;
  config.samples_per_block = 48;
  core::PipelineResult pipeline = core::RunPipeline(internet, config);
  auto homogeneous = pipeline.HomogeneousBlocks();
  auto aggregates = AggregateIdentical(homogeneous);
  ASSERT_GT(aggregates.size(), 0u);
  MclAggregationResult mcl = RunMclAggregation(aggregates);
  ValidateClusters(internet, pipeline.study_blocks, aggregates, mcl);
  for (const auto& cluster : mcl.clusters) {
    EXPECT_GE(cluster.identical_pair_ratio, 0.0);
    EXPECT_LE(cluster.identical_pair_ratio, 1.0);
    if (cluster.validated_homogeneous) {
      EXPECT_DOUBLE_EQ(cluster.identical_pair_ratio, 1.0);
    }
  }
  // Validated merges can only reduce the block count.
  auto merged = MergeValidatedClusters(aggregates, mcl);
  EXPECT_LE(merged.size(), aggregates.size());
}

// FNV-1a 64 over every cluster's verdict: the identical-pair ratio's
// bits, then the validated flag.
std::uint64_t VerdictHash(const MclAggregationResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto fold = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const ClusterInfo& cluster : result.clusters) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &cluster.identical_pair_ratio, sizeof bits);
    fold(&bits, sizeof bits);
    const unsigned char validated = cluster.validated_homogeneous ? 1 : 0;
    fold(&validated, 1);
  }
  return hash;
}

TEST(ValidateClusters, GoldenVerdicts) {
  // Pins the validation verdicts and the campaign's packet count of one
  // fixed world, with no pool and at every thread count.  Any
  // restructuring of the reprobe pass must reproduce these constants bit
  // for bit.
  netsim::InternetConfig world;
  world.seed = 42;
  world.scale = 0.05;
  netsim::Internet internet = netsim::BuildInternet(world);
  test::ForEachPool(test::ThreadCounts(), [&](common::ThreadPool* pool) {
    core::PipelineConfig config;
    config.seed = 42;
    config.pool = pool;
    config.calibration_blocks = 200;
    config.samples_per_block = 32;
    core::PipelineResult pipeline = core::RunPipeline(internet, config);
    auto homogeneous = pipeline.HomogeneousBlocks();
    auto aggregates = AggregateIdentical(homogeneous);
    MclAggregationParams mcl_params;
    mcl_params.mcl.pool = pool;
    MclAggregationResult mcl = RunMclAggregation(aggregates, mcl_params);
    ValidationParams validation;
    validation.seed = 42;
    validation.pool = pool;
    ValidateClusters(internet, pipeline.study_blocks, aggregates, mcl,
                     validation);
    std::size_t validated = 0;
    for (const ClusterInfo& cluster : mcl.clusters) {
      if (cluster.validated_homogeneous) ++validated;
    }
    EXPECT_EQ(mcl.clusters.size(), 122u);
    EXPECT_EQ(validated, 27u);
    EXPECT_EQ(VerdictHash(mcl), 0xd94f97bbc78456e9ULL);
    EXPECT_EQ(pipeline.stats.probes_sent, 510776u);
  });
}

}  // namespace
}  // namespace hobbit::cluster
