#include "cluster/mcl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/sparse.h"
#include "common/parallel.h"
#include "netsim/rng.h"

namespace hobbit::cluster {
namespace {

/// Two 4-cliques joined by a single weak edge — the canonical MCL demo.
Graph TwoCliques(double bridge_weight = 0.1) {
  Graph g;
  g.vertex_count = 8;
  auto clique = [&g](std::uint32_t base) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = i + 1; j < 4; ++j) {
        g.edges.push_back({base + i, base + j, 1.0});
      }
    }
  };
  clique(0);
  clique(4);
  g.edges.push_back({3, 4, bridge_weight});
  return g;
}

std::set<std::set<std::uint32_t>> AsSets(const MclResult& result) {
  std::set<std::set<std::uint32_t>> out;
  for (const auto& cluster : result.clusters) {
    out.insert(std::set<std::uint32_t>(cluster.begin(), cluster.end()));
  }
  return out;
}

TEST(Mcl, SeparatesTwoCliques) {
  MclResult result = RunMcl(TwoCliques());
  auto sets = AsSets(result);
  EXPECT_TRUE(sets.count({0, 1, 2, 3}));
  EXPECT_TRUE(sets.count({4, 5, 6, 7}));
  EXPECT_EQ(result.clusters.size(), 2u);
}

TEST(Mcl, EveryVertexInExactlyOneCluster) {
  MclResult result = RunMcl(TwoCliques());
  std::vector<int> seen(8, 0);
  for (const auto& cluster : result.clusters) {
    for (std::uint32_t v : cluster) ++seen[v];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(Mcl, EmptyGraph) {
  Graph g;
  MclResult result = RunMcl(g);
  EXPECT_TRUE(result.clusters.empty());
}

TEST(Mcl, IsolatedVerticesBecomeSingletons) {
  Graph g;
  g.vertex_count = 3;
  g.edges.push_back({0, 1, 1.0});
  MclResult result = RunMcl(g);
  auto sets = AsSets(result);
  EXPECT_TRUE(sets.count({0, 1}));
  EXPECT_TRUE(sets.count({2}));
  EXPECT_EQ(result.NontrivialCount(), 1u);
}

TEST(Mcl, HigherInflationGivesFinerClusters) {
  // A 6-ring: low inflation keeps it together (or few clusters), high
  // inflation shatters it into more clusters.
  Graph ring;
  ring.vertex_count = 6;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ring.edges.push_back({i, (i + 1) % 6, 1.0});
  }
  MclParams coarse;
  coarse.inflation = 1.3;
  MclParams fine;
  fine.inflation = 6.0;
  std::size_t coarse_count = RunMcl(ring, coarse).clusters.size();
  std::size_t fine_count = RunMcl(ring, fine).clusters.size();
  EXPECT_LE(coarse_count, fine_count);
  EXPECT_GT(fine_count, 1u);
}

TEST(Mcl, SelfLoopsOnlyGraphIsAllSingletons) {
  Graph g;
  g.vertex_count = 4;  // no edges at all
  MclResult result = RunMcl(g);
  EXPECT_EQ(result.clusters.size(), 4u);
  EXPECT_EQ(result.NontrivialCount(), 0u);
}

TEST(Mcl, DeterministicAcrossRuns) {
  Graph g = TwoCliques(0.4);
  MclResult a = RunMcl(g);
  MclResult b = RunMcl(g);
  EXPECT_EQ(AsSets(a), AsSets(b));
}

TEST(Mcl, ConvergesWithinBudget) {
  MclResult result = RunMcl(TwoCliques());
  EXPECT_LT(result.iterations, 64);
  EXPECT_GT(result.iterations, 1);
}

TEST(SweepInflation, PicksCandidateMinimizingBadEdges) {
  Graph g = TwoCliques(0.05);
  const double candidates[] = {1.2, 2.0, 4.0};
  SweepOutcome outcome = SweepInflation(g, candidates);
  EXPECT_EQ(outcome.tried.size(), 3u);
  // The chosen inflation must actually be one of the candidates and carry
  // the minimal ratio.
  double best = 2.0;
  double best_ratio = 2.0;
  for (auto& [inflation, ratio] : outcome.tried) {
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best = inflation;
    }
  }
  EXPECT_DOUBLE_EQ(outcome.best_inflation, best);
  EXPECT_DOUBLE_EQ(outcome.best_bad_edge_ratio, best_ratio);
}

TEST(SweepInflation, EmptyGraphIsSafe) {
  Graph g;
  const double candidates[] = {2.0};
  SweepOutcome outcome = SweepInflation(g, candidates);
  EXPECT_TRUE(outcome.tried.empty());
}

// Property: on random graphs, MCL always returns a partition of the
// vertex set.
class MclPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MclPartitionProperty, AlwaysAPartition) {
  netsim::Rng rng(GetParam());
  Graph g;
  g.vertex_count = 20 + static_cast<std::uint32_t>(rng.NextBelow(20));
  for (std::uint32_t i = 0; i < g.vertex_count; ++i) {
    for (std::uint32_t j = i + 1; j < g.vertex_count; ++j) {
      if (rng.NextBool(0.1)) g.edges.push_back({i, j, rng.NextUnit()});
    }
  }
  MclResult result = RunMcl(g);
  std::vector<int> seen(g.vertex_count, 0);
  for (const auto& cluster : result.clusters) {
    EXPECT_FALSE(cluster.empty());
    for (std::uint32_t v : cluster) {
      ASSERT_LT(v, g.vertex_count);
      ++seen[v];
    }
  }
  for (std::uint32_t v = 0; v < g.vertex_count; ++v) {
    EXPECT_EQ(seen[v], 1) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MclPartitionProperty,
                         ::testing::Values(1, 5, 9, 13, 21, 101));

// --- Numerical invariants of the parallel (column-sharded) iteration ---

SparseMatrix RandomStochasticMatrix(std::uint64_t seed, std::uint32_t n) {
  netsim::Rng rng(seed);
  std::vector<SparseMatrix::Triplet> triplets;
  for (std::uint32_t c = 0; c < n; ++c) {
    triplets.push_back({c, c, 0.5 + rng.NextUnit()});
    const std::size_t extra = 1 + rng.NextBelow(8);
    for (std::size_t k = 0; k < extra; ++k) {
      triplets.push_back({static_cast<std::uint32_t>(rng.NextBelow(n)), c,
                          0.01 + rng.NextUnit()});
    }
  }
  SparseMatrix m = SparseMatrix::FromTriplets(n, std::move(triplets));
  m.NormalizeColumns();
  return m;
}

void ExpectColumnStochastic(const SparseMatrix& m) {
  for (std::uint32_t c = 0; c < m.size(); ++c) {
    SparseMatrix::ColumnView col = m.Column(c);
    if (col.count == 0) continue;
    double sum = 0.0;
    for (std::size_t i = 0; i < col.count; ++i) sum += col.values[i];
    EXPECT_NEAR(sum, 1.0, 1e-12) << "column " << c;
  }
}

// 512 columns carry ~2.8 k nonzeros: above MclIterate's inline
// threshold, so these iterations really split across the pool.
constexpr std::uint32_t kShardedColumns = 512;

TEST(MclInvariants, ParallelInflationKeepsColumnsStochastic) {
  common::ThreadPool pool(4);
  SparseMatrix m = RandomStochasticMatrix(17, kShardedColumns);
  // No pruning (threshold 0, no per-column cap): inflation and its
  // renormalization alone must leave every column summing to 1.
  for (double inflation : {2.0, 3.5}) {
    m = m.MclIterate(inflation, 0.0, kShardedColumns, &pool);
    ExpectColumnStochastic(m);
  }
}

TEST(MclInvariants, ParallelInflationBitIdenticalToSerial) {
  // A non-2.0 power takes the pow + lane-sum inflation path.
  const SparseMatrix m = RandomStochasticMatrix(29, kShardedColumns);
  common::ThreadPool pool(7);
  double serial_delta = 0.0;
  double parallel_delta = 0.0;
  SparseMatrix serial = m.MclIterate(3.5, 1e-4, 16, nullptr, &serial_delta);
  SparseMatrix parallel = m.MclIterate(3.5, 1e-4, 16, &pool, &parallel_delta);
  ASSERT_EQ(serial.nonzeros(), parallel.nonzeros());
  EXPECT_EQ(serial.MaxDifference(parallel), 0.0);
  EXPECT_EQ(serial_delta, parallel_delta);
}

TEST(MclInvariants, ParallelExpansionAndPruneStayStochastic) {
  common::ThreadPool pool(4);
  SparseMatrix m = RandomStochasticMatrix(5, kShardedColumns);
  SparseMatrix next = m.MclIterate(2.0, 1e-5, 8, &pool);
  ExpectColumnStochastic(next);
  for (std::uint32_t c = 0; c < next.size(); ++c) {
    EXPECT_LE(next.Column(c).count, 8u) << "column " << c;
  }
}

TEST(MclInvariants, PruningYieldsIdenticalClustersSerialVsParallel) {
  // Aggressive pruning settings: the serial and parallel paths must pick
  // the same survivors per column and hence the same clusters.
  netsim::Rng rng(83);
  Graph g;
  g.vertex_count = 40;
  for (std::uint32_t i = 0; i < g.vertex_count; ++i) {
    for (std::uint32_t j = i + 1; j < g.vertex_count; ++j) {
      if (rng.NextBool(0.2)) g.edges.push_back({i, j, rng.NextUnit()});
    }
  }
  for (auto [threshold, max_entries] :
       {std::pair<double, std::size_t>{1e-3, 3},
        std::pair<double, std::size_t>{1e-5, 8},
        std::pair<double, std::size_t>{1e-2, 64}}) {
    MclParams serial;
    serial.prune_threshold = threshold;
    serial.max_entries_per_column = max_entries;
    common::ThreadPool pool(5);
    MclParams parallel = serial;
    parallel.pool = &pool;
    MclResult a = RunMcl(g, serial);
    MclResult b = RunMcl(g, parallel);
    EXPECT_EQ(a.clusters, b.clusters)
        << "threshold=" << threshold << " max=" << max_entries;
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

}  // namespace
}  // namespace hobbit::cluster
