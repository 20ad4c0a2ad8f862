// Dispatch correctness for the simd kernel layer (common/simd.h): tier
// resolution/clamping, bit-exact kernel differentials against the
// scalar reference, and whole-subsystem forced-tier differentials —
// identical MCL matrices out of cluster::SparseMatrix and identical
// lookup results out of the Eytzinger batch path, across thread counts.
// Runs in the concurrency suite so the tsan presets cover the
// kernels-under-thread-pool paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cluster/sparse.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "netsim/ipv4.h"
#include "serve/lookup.h"
#include "serve/snapshot.h"
#include "sparse_oracle.h"

namespace hobbit {
namespace {

using common::simd::ActiveTier;
using common::simd::KernelsFor;
using common::simd::LaneAccumulator;
using common::simd::MaxSupportedTier;
using common::simd::ResolveTier;
using common::simd::SetActiveTier;
using common::simd::Tier;
using common::simd::TierName;
using common::simd::TierSupported;

/// Restores the dispatched tier on scope exit, so forced-tier tests
/// cannot leak a pinned tier into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(ActiveTier()) {}
  ~TierGuard() { SetActiveTier(saved_); }

 private:
  Tier saved_;
};

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierSupported(Tier::kSse2)) tiers.push_back(Tier::kSse2);
  if (TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  return tiers;
}

std::vector<double> RandomValues(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> values(count);
  for (double& v : values) v = dist(rng);
  return values;
}

// The sizes worth probing: empty, sub-lane tails, exact vector blocks,
// off-by-one around the 8-lane stride, and a large buffer.
const std::size_t kSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 63, 64, 65, 1000, 4097};

TEST(SimdDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(TierName(Tier::kSse2), "sse2");
  EXPECT_STREQ(TierName(Tier::kAvx2), "avx2");
}

TEST(SimdDispatch, ResolveClampsToSupportedCeiling) {
  EXPECT_EQ(ResolveTier("scalar", Tier::kAvx2), Tier::kScalar);
  EXPECT_EQ(ResolveTier("sse2", Tier::kAvx2), Tier::kSse2);
  EXPECT_EQ(ResolveTier("avx2", Tier::kAvx2), Tier::kAvx2);
  // Requests above the ceiling clamp down: the override can never
  // select a tier the host cannot execute.
  EXPECT_EQ(ResolveTier("avx2", Tier::kSse2), Tier::kSse2);
  EXPECT_EQ(ResolveTier("avx2", Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(ResolveTier("sse2", Tier::kScalar), Tier::kScalar);
  // Null, empty and unknown requests resolve to the ceiling itself.
  EXPECT_EQ(ResolveTier(nullptr, Tier::kSse2), Tier::kSse2);
  EXPECT_EQ(ResolveTier("", Tier::kAvx2), Tier::kAvx2);
  EXPECT_EQ(ResolveTier("avx512", Tier::kSse2), Tier::kSse2);
}

TEST(SimdDispatch, SetActiveTierClampsAndRestores) {
  TierGuard guard;
  EXPECT_EQ(SetActiveTier(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(ActiveTier(), Tier::kScalar);
  const Tier installed = SetActiveTier(Tier::kAvx2);
  EXPECT_EQ(installed, TierSupported(Tier::kAvx2) ? Tier::kAvx2
                                                  : MaxSupportedTier());
  EXPECT_EQ(ActiveTier(), installed);
}

TEST(SimdDispatch, ScalarKernelsMatchLaneAccumulatorContract) {
  // The scalar tier IS the contract: pin its reduction to the
  // documented lane order, not to a sequential sum.
  const auto& kernels = KernelsFor(Tier::kScalar);
  for (std::size_t size : kSizes) {
    std::vector<double> values = RandomValues(size, 77 + size);
    LaneAccumulator acc;
    for (std::size_t i = 0; i < size; ++i) acc.Add(i, values[i]);
    const double expected = acc.Combine();
    const double actual = kernels.sum(values.data(), size);
    EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
        << "size " << size;
  }
}

/// Bitwise buffer equality.  An empty vector's data() may be null, which
/// memcmp must not see even with a zero length.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdKernels, AllTiersMatchScalarBitForBit) {
  const auto& reference = KernelsFor(Tier::kScalar);
  for (Tier tier : SupportedTiers()) {
    const auto& kernels = KernelsFor(tier);
    for (std::size_t size : kSizes) {
      SCOPED_TRACE(std::string(TierName(tier)) + " size " +
                   std::to_string(size));
      const std::vector<double> base = RandomValues(size, 1234 + size);
      std::vector<std::uint32_t> tags(size);
      for (std::size_t i = 0; i < size; ++i) {
        tags[i] = static_cast<std::uint32_t>(i * 3 + 1);
      }

      // sum
      const double want_sum = reference.sum(base.data(), size);
      const double got_sum = kernels.sum(base.data(), size);
      EXPECT_EQ(std::memcmp(&want_sum, &got_sum, sizeof(double)), 0);

      // square_accumulate (mutates: compare both the sum and the buffer)
      std::vector<double> want_sq = base;
      std::vector<double> got_sq = base;
      const double want_acc =
          reference.square_accumulate(want_sq.data(), size);
      const double got_acc = kernels.square_accumulate(got_sq.data(), size);
      EXPECT_EQ(std::memcmp(&want_acc, &got_acc, sizeof(double)), 0);
      EXPECT_TRUE(SameBits(want_sq, got_sq));

      // divide
      std::vector<double> want_div = base;
      std::vector<double> got_div = base;
      reference.divide(want_div.data(), size, 0.3721);
      kernels.divide(got_div.data(), size, 0.3721);
      EXPECT_TRUE(SameBits(want_div, got_div));

      // filter_ge (threshold at 0 keeps roughly half of (-1, 1))
      std::vector<std::pair<double, std::uint32_t>> want_kept(size);
      std::vector<std::pair<double, std::uint32_t>> got_kept(size);
      const std::size_t want_count = reference.filter_ge(
          base.data(), tags.data(), size, 0.0, want_kept.data());
      const std::size_t got_count = kernels.filter_ge(
          base.data(), tags.data(), size, 0.0, got_kept.data());
      ASSERT_EQ(want_count, got_count);
      for (std::size_t i = 0; i < want_count; ++i) {
        EXPECT_EQ(want_kept[i], got_kept[i]) << "kept entry " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-tier MCL differentials.

cluster::SparseMatrix RandomStochasticMatrix(std::uint32_t n,
                                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.05, 1.0);
  std::uniform_int_distribution<std::uint32_t> row(0, n - 1);
  std::vector<cluster::SparseMatrix::Triplet> triplets;
  for (std::uint32_t c = 0; c < n; ++c) {
    triplets.push_back({c, c, 1.0});  // self loop keeps columns nonzero
    for (int e = 0; e < 6; ++e) {
      triplets.push_back({row(rng), c, weight(rng)});
    }
  }
  cluster::SparseMatrix m =
      cluster::SparseMatrix::FromTriplets(n, std::move(triplets));
  m.NormalizeColumns(nullptr);
  return m;
}

void ExpectSameMatrix(const cluster::SparseMatrix& a,
                      const cluster::SparseMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.nonzeros(), b.nonzeros());
  for (std::uint32_t c = 0; c < a.size(); ++c) {
    cluster::SparseMatrix::ColumnView ca = a.Column(c);
    cluster::SparseMatrix::ColumnView cb = b.Column(c);
    ASSERT_EQ(ca.count, cb.count) << "column " << c;
    for (std::size_t i = 0; i < ca.count; ++i) {
      EXPECT_EQ(ca.rows[i], cb.rows[i]) << "column " << c << " entry " << i;
      EXPECT_EQ(std::memcmp(&ca.values[i], &cb.values[i], sizeof(double)),
                0)
          << "column " << c << " entry " << i;
    }
  }
}

TEST(SimdMclDifferential, ForcedTiersProduceIdenticalMatrices) {
  TierGuard guard;
  constexpr std::uint32_t kN = 300;

  SetActiveTier(Tier::kScalar);
  const cluster::SparseMatrix m = RandomStochasticMatrix(kN, 99);
  double reference_delta = 0.0;
  const cluster::SparseMatrix reference =
      m.MclIterate(2.0, 1e-4, 12, nullptr, &reference_delta);

  for (Tier tier : {Tier::kSse2, Tier::kAvx2}) {
    if (!TierSupported(tier)) {
      continue;  // covered by the skip-reporting test below
    }
    SCOPED_TRACE(TierName(tier));
    SetActiveTier(tier);
    for (int threads : {1, 3}) {
      common::ThreadPool pool(threads);
      double delta = 0.0;
      const cluster::SparseMatrix iterated =
          m.MclIterate(2.0, 1e-4, 12, &pool, &delta);
      ExpectSameMatrix(reference, iterated);
      EXPECT_EQ(std::memcmp(&reference_delta, &delta, sizeof(double)), 0);
    }
    // The unfused oracle under this tier must land on the same bits too
    // (fused == unfused == every tier).
    ExpectSameMatrix(reference, test::OracleMclIterate(m, 2.0, 1e-4, 12));
  }
}

TEST(SimdMclDifferential, ForceAvx2SkipsCleanlyWhenUnsupported) {
  if (TierSupported(Tier::kAvx2)) {
    GTEST_SKIP() << "host executes AVX2; the forced-tier differential "
                    "above covers it";
  }
  // On hardware without AVX2 the override must clamp, not crash.
  TierGuard guard;
  EXPECT_NE(SetActiveTier(Tier::kAvx2), Tier::kAvx2);
}

TEST(SimdMclDifferential, GeneralPowerInflationMatchesAcrossTiers) {
  // A non-2.0 power takes the scalar pow pass + lane-ordered sum in the
  // fused iteration; every tier, thread count and the unfused oracle
  // must agree on its bits.
  TierGuard guard;
  SetActiveTier(Tier::kScalar);
  const cluster::SparseMatrix m = RandomStochasticMatrix(300, 7);
  const cluster::SparseMatrix want = m.MclIterate(1.7, 1e-4, 12, nullptr);
  for (Tier tier : SupportedTiers()) {
    SCOPED_TRACE(TierName(tier));
    SetActiveTier(tier);
    for (int threads : {1, 3}) {
      common::ThreadPool pool(threads);
      ExpectSameMatrix(want, m.MclIterate(1.7, 1e-4, 12, &pool));
    }
    ExpectSameMatrix(want, test::OracleMclIterate(m, 1.7, 1e-4, 12));
  }
}

// ---------------------------------------------------------------------------
// Batched Eytzinger descent differentials.

std::vector<std::uint32_t> SyntheticSortedKeys(std::size_t count) {
  std::vector<std::uint32_t> keys(count);
  std::uint32_t next = 1u << 8;
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<std::uint32_t> gap(1, 5);
  for (std::size_t i = 0; i < count; ++i) {
    keys[i] = next;
    next += gap(rng) << 8;
  }
  return keys;
}

TEST(SimdLookupDifferential, BatchDescentMatchesSingleKeyDescent) {
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{10000}}) {
    SCOPED_TRACE("index size " + std::to_string(count));
    const std::vector<std::uint32_t> keys = SyntheticSortedKeys(count);
    const serve::EytzingerIndex index = serve::EytzingerIndex::Build(keys);

    // Query mix: every key (hit), every key ± 1 (miss straddles), the
    // extremes, and batch lengths that exercise partial groups.
    std::vector<std::uint32_t> queries;
    for (std::uint32_t key : keys) {
      queries.push_back(key);
      queries.push_back(key - 1);
      queries.push_back(key + 1);
    }
    queries.push_back(0);
    queries.push_back(0xFFFFFFFFu);
    for (std::size_t take : {std::size_t{1}, std::size_t{15},
                             std::size_t{16}, std::size_t{17},
                             queries.size()}) {
      const std::size_t n = std::min(take, queries.size());
      std::vector<std::size_t> got(n);
      index.LowerBoundRankBatch(queries.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], index.LowerBoundRank(queries[i]))
            << "query " << i;
      }
    }
  }
}

serve::Snapshot BuildSnapshot(std::size_t member_count) {
  std::vector<cluster::AggregateBlock> blocks;
  cluster::AggregateBlock block;
  for (std::size_t i = 0; i < member_count; ++i) {
    block.member_24s.push_back(netsim::Prefix::Of(
        netsim::Ipv4Address(static_cast<std::uint32_t>((i * 7 + 3) << 8)),
        24));
    if (block.member_24s.size() == 16) {
      block.last_hops = {netsim::Ipv4Address(
          static_cast<std::uint32_t>(0x0A000000 + blocks.size()))};
      std::sort(block.member_24s.begin(), block.member_24s.end());
      blocks.push_back(std::move(block));
      block = {};
    }
  }
  if (!block.member_24s.empty()) {
    block.last_hops = {netsim::Ipv4Address(0x0AFFFFFF)};
    std::sort(block.member_24s.begin(), block.member_24s.end());
    blocks.push_back(std::move(block));
  }
  auto snapshot = serve::Snapshot::FromBuffer(
      serve::CompileSnapshotV2(blocks, {}, 5));
  EXPECT_TRUE(snapshot.has_value());
  return *snapshot;
}

TEST(SimdLookupDifferential, IndexedBatchMatchesUnindexedAcrossThreads) {
  const serve::Snapshot snapshot = BuildSnapshot(5000);
  const serve::EytzingerIndex index =
      serve::EytzingerIndex::Build(snapshot);
  const serve::LookupEngine indexed(snapshot, &index);
  const serve::LookupEngine plain(snapshot);

  std::vector<std::uint32_t> queries;
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::uint32_t> any(0, 0xFFFFFF);
  for (int i = 0; i < 20000; ++i) queries.push_back(any(rng) << 8);
  for (std::size_t i = 0; i < snapshot.entry_count(); i += 3) {
    queries.push_back(snapshot.EntryKey(i));
  }

  std::vector<serve::LookupResult> want(queries.size());
  plain.LookupBatch(queries, want, nullptr);
  for (int threads : {0, 1, 3}) {
    SCOPED_TRACE(threads);
    common::ThreadPool pool(threads > 0 ? threads : 1);
    std::vector<serve::LookupResult> got(queries.size());
    indexed.LookupBatch(queries, got, threads == 0 ? nullptr : &pool);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(want[i].found, got[i].found) << "query " << i;
      ASSERT_EQ(want[i].key, got[i].key) << "query " << i;
      ASSERT_EQ(want[i].block, got[i].block) << "query " << i;
      ASSERT_EQ(want[i].class_token, got[i].class_token) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace hobbit
