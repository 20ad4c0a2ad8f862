#include "cluster/sparse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/rng.h"
#include "sparse_oracle.h"

namespace hobbit::cluster {
namespace {

using Triplet = SparseMatrix::Triplet;

std::vector<std::vector<double>> ToDense(const SparseMatrix& m) {
  std::vector<std::vector<double>> dense(
      m.size(), std::vector<double>(m.size(), 0.0));
  for (std::uint32_t c = 0; c < m.size(); ++c) {
    auto col = m.Column(c);
    for (std::size_t i = 0; i < col.count; ++i) {
      dense[col.rows[i]][c] = col.values[i];
    }
  }
  return dense;
}

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, {{0, 1, 2.0}, {0, 1, 3.0}, {2, 0, 1.0}});
  EXPECT_EQ(m.nonzeros(), 2u);
  auto dense = ToDense(m);
  EXPECT_DOUBLE_EQ(dense[0][1], 5.0);
  EXPECT_DOUBLE_EQ(dense[2][0], 1.0);
}

TEST(SparseMatrix, ColumnsAreSortedByRow) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      4, {{3, 0, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}});
  auto col = m.Column(0);
  ASSERT_EQ(col.count, 3u);
  EXPECT_LT(col.rows[0], col.rows[1]);
  EXPECT_LT(col.rows[1], col.rows[2]);
}

TEST(SparseMatrix, NormalizeColumnsMakesStochastic) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, {{0, 0, 2.0}, {1, 0, 6.0}, {0, 1, 5.0}});
  m.NormalizeColumns();
  auto dense = ToDense(m);
  EXPECT_DOUBLE_EQ(dense[0][0], 0.25);
  EXPECT_DOUBLE_EQ(dense[1][0], 0.75);
  EXPECT_DOUBLE_EQ(dense[0][1], 1.0);
}

// The next four tests pin the unfused oracle's steps (sparse_oracle.h)
// to their textbook meaning, so the bit-identity tests below compare
// MclIterate against the right thing.
TEST(SparseMatrix, InflateSharpensColumns) {
  SparseMatrix m = test::OracleInflate(
      SparseMatrix::FromTriplets(2, {{0, 0, 0.75}, {1, 0, 0.25}}), 2.0);
  auto dense = ToDense(m);
  // 0.75^2 : 0.25^2 = 9 : 1.
  EXPECT_NEAR(dense[0][0], 0.9, 1e-12);
  EXPECT_NEAR(dense[1][0], 0.1, 1e-12);
}

TEST(SparseMatrix, PruneDropsSmallEntries) {
  SparseMatrix m = test::OraclePrune(
      SparseMatrix::FromTriplets(
          3, {{0, 0, 0.98}, {1, 0, 0.01}, {2, 0, 0.01}}),
      0.02, 10);
  auto col = m.Column(0);
  ASSERT_EQ(col.count, 1u);
  EXPECT_DOUBLE_EQ(col.values[0], 1.0);  // renormalized
}

TEST(SparseMatrix, PruneKeepsTopK) {
  SparseMatrix m = test::OraclePrune(
      SparseMatrix::FromTriplets(
          4, {{0, 0, 0.4}, {1, 0, 0.3}, {2, 0, 0.2}, {3, 0, 0.1}}),
      0.0, 2);
  auto col = m.Column(0);
  ASSERT_EQ(col.count, 2u);
  EXPECT_EQ(col.rows[0], 0u);
  EXPECT_EQ(col.rows[1], 1u);
  EXPECT_NEAR(col.values[0] + col.values[1], 1.0, 1e-12);
}

TEST(SparseMatrix, MultiplyMatchesDenseReference) {
  netsim::Rng rng(31);
  constexpr std::uint32_t kN = 12;
  std::vector<Triplet> ta, tb;
  for (std::uint32_t c = 0; c < kN; ++c) {
    for (std::uint32_t r = 0; r < kN; ++r) {
      if (rng.NextBool(0.3)) ta.push_back({r, c, rng.NextUnit()});
      if (rng.NextBool(0.3)) tb.push_back({r, c, rng.NextUnit()});
    }
  }
  SparseMatrix a = SparseMatrix::FromTriplets(kN, ta);
  SparseMatrix b = SparseMatrix::FromTriplets(kN, tb);
  auto da = ToDense(a);
  auto db = ToDense(b);
  auto dc = ToDense(test::OracleMultiply(a, b));
  for (std::uint32_t i = 0; i < kN; ++i) {
    for (std::uint32_t j = 0; j < kN; ++j) {
      double want = 0;
      for (std::uint32_t k = 0; k < kN; ++k) want += da[i][k] * db[k][j];
      EXPECT_NEAR(dc[i][j], want, 1e-9) << i << "," << j;
    }
  }
}

TEST(SparseMatrix, ChaosZeroForIdempotentColumns) {
  // A column with a single 1.0 entry is converged (max == sum of squares).
  SparseMatrix m = SparseMatrix::FromTriplets(2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_NEAR(m.Chaos(), 0.0, 1e-12);
  // An uneven, non-converged column: max 0.5, sum of squares 0.38.
  SparseMatrix spread = SparseMatrix::FromTriplets(
      3, {{0, 0, 0.5}, {1, 0, 0.3}, {2, 0, 0.2}});
  EXPECT_NEAR(spread.Chaos(), 0.12, 1e-12);
}

TEST(SparseMatrix, MaxDifference) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, {{0, 0, 0.6}, {1, 0, 0.4}});
  SparseMatrix b = SparseMatrix::FromTriplets(2, {{0, 0, 0.5}, {1, 1, 0.2}});
  EXPECT_NEAR(a.MaxDifference(b), 0.4, 1e-12);  // the (1,0) entry
  EXPECT_NEAR(a.MaxDifference(a), 0.0, 1e-12);
}

// Builds a pseudo-random column-stochastic matrix with the given size
// and per-column support, deterministic in `seed`.
SparseMatrix RandomStochastic(std::uint32_t n, std::uint32_t per_column,
                              std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<Triplet> triplets;
  for (std::uint32_t c = 0; c < n; ++c) {
    triplets.push_back({c, c, 1.0});  // self-loop keeps columns non-empty
    for (std::uint32_t k = 0; k < per_column; ++k) {
      const auto row = static_cast<std::uint32_t>(rng.NextBelow(n));
      const double value =
          1e-4 + static_cast<double>(rng.NextBelow(1000)) / 1000.0;
      triplets.push_back({row, c, value});
    }
  }
  SparseMatrix m = SparseMatrix::FromTriplets(n, std::move(triplets));
  m.NormalizeColumns();
  return m;
}

TEST(SparseMatrix, MclIterateMatchesUnfusedSequenceBitForBit) {
  // The fused iteration must be *bit-identical* to the unfused
  // four-step oracle — same FP operations in the same order — and its
  // reported delta must equal MaxDifference against the input.  Power
  // 2.0 takes the square kernel, 1.7 the pow + sum path.
  for (std::uint64_t seed : {1ull, 42ull, 0xF00Dull}) {
    for (double inflation : {2.0, 1.7}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " inflation=" << inflation);
      SparseMatrix m = RandomStochastic(60, 5, seed);
      for (int iteration = 0; iteration < 4; ++iteration) {
        SparseMatrix unfused = test::OracleMclIterate(m, inflation, 1e-4, 12);
        double delta = -1.0;
        SparseMatrix fused =
            m.MclIterate(inflation, 1e-4, 12, nullptr, &delta);

        ASSERT_EQ(fused.size(), unfused.size());
        ASSERT_EQ(fused.nonzeros(), unfused.nonzeros());
        for (std::uint32_t c = 0; c < fused.size(); ++c) {
          auto fc = fused.Column(c);
          auto uc = unfused.Column(c);
          ASSERT_EQ(fc.count, uc.count) << "column " << c;
          for (std::size_t i = 0; i < fc.count; ++i) {
            ASSERT_EQ(fc.rows[i], uc.rows[i]) << "column " << c;
            // Exact equality on purpose: the contract is bit identity,
            // not tolerance.
            ASSERT_EQ(fc.values[i], uc.values[i])
                << "column " << c << " entry " << i;
          }
        }
        EXPECT_EQ(delta, fused.MaxDifference(m));
        m = std::move(fused);
      }
    }
  }
}

TEST(SparseMatrix, MclIterateWithoutDeltaPointerIsSafe) {
  SparseMatrix m = RandomStochastic(20, 3, 7);
  SparseMatrix next = m.MclIterate(2.0, 1e-4, 8, nullptr, nullptr);
  EXPECT_EQ(next.size(), m.size());
  EXPECT_GT(next.nonzeros(), 0u);
}

}  // namespace
}  // namespace hobbit::cluster
