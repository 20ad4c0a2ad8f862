#include "analysis/sampling.h"

#include <gtest/gtest.h>

#include <vector>

namespace hobbit::analysis {
namespace {

TEST(Sampling, TotalDistinctPatterns) {
  std::vector<std::uint32_t> ids = {1, 1, 2, 3, 3, 3};
  EXPECT_EQ(TotalDistinctPatterns(ids), 3u);
  EXPECT_EQ(TotalDistinctPatterns(std::vector<std::uint32_t>{}), 0u);
}

TEST(Sampling, StratifiedHitsEveryPatternWhenStrataAlign) {
  // 8 strata, each uniform in one pattern: stratified sampling with one
  // draw per stratum always finds all 8 patterns.
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint32_t>> strata(8);
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (int i = 0; i < 100; ++i) {
      strata[s].push_back(static_cast<std::uint32_t>(ids.size()));
      ids.push_back(s);
    }
  }
  double mean =
      MeanDistinctPatternsStratified(ids, strata, 10, netsim::Rng(1));
  EXPECT_DOUBLE_EQ(mean, 8.0);
}

TEST(Sampling, RandomSampleMissesPatternsAtEqualSize) {
  // Same population: a random sample of 8 of 800 misses patterns often.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t s = 0; s < 8; ++s) {
    for (int i = 0; i < 100; ++i) ids.push_back(s);
  }
  double random_mean =
      MeanDistinctPatternsRandom(ids, 8, 200, netsim::Rng(2));
  EXPECT_LT(random_mean, 7.0);
  EXPECT_GT(random_mean, 3.0);
}

TEST(Sampling, RandomImprovesWithMultiplier) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t s = 0; s < 16; ++s) {
    for (std::uint32_t i = 0; i < 50 + 200 * (s % 2); ++i) ids.push_back(s);
  }
  double x1 = MeanDistinctPatternsRandom(ids, 16, 100, netsim::Rng(3));
  double x2 = MeanDistinctPatternsRandom(ids, 32, 100, netsim::Rng(3));
  double x4 = MeanDistinctPatternsRandom(ids, 64, 100, netsim::Rng(3));
  EXPECT_LT(x1, x2);
  EXPECT_LT(x2, x4);
}

TEST(Sampling, SkewedPopulationsFavorStratified) {
  // Fig 12's core effect: rare host types live in their own (small)
  // blocks; random sampling keeps drawing the dominant type.
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint32_t>> strata;
  // One huge stratum of pattern 0.
  strata.emplace_back();
  for (int i = 0; i < 5000; ++i) {
    strata.back().push_back(static_cast<std::uint32_t>(ids.size()));
    ids.push_back(0);
  }
  // 20 tiny strata with rare patterns.
  for (std::uint32_t s = 1; s <= 20; ++s) {
    strata.emplace_back();
    for (int i = 0; i < 10; ++i) {
      strata.back().push_back(static_cast<std::uint32_t>(ids.size()));
      ids.push_back(s);
    }
  }
  double stratified =
      MeanDistinctPatternsStratified(ids, strata, 50, netsim::Rng(4));
  double random = MeanDistinctPatternsRandom(ids, strata.size(), 50,
                                             netsim::Rng(4));
  EXPECT_GT(stratified, 2.0 * random)
      << "stratified " << stratified << " vs random " << random;
  // Even 4x random stays behind (the paper's headline).
  double random4 = MeanDistinctPatternsRandom(ids, strata.size() * 4, 50,
                                              netsim::Rng(4));
  EXPECT_GT(stratified, random4);
}

TEST(Sampling, HandlesEmptyStrata) {
  std::vector<std::uint32_t> ids = {0, 1};
  std::vector<std::vector<std::uint32_t>> strata(3);
  strata[0] = {0};
  strata[2] = {1};  // strata[1] empty
  double mean =
      MeanDistinctPatternsStratified(ids, strata, 5, netsim::Rng(5));
  EXPECT_DOUBLE_EQ(mean, 2.0);
}

TEST(Sampling, SampleSizeClampedToPopulation) {
  std::vector<std::uint32_t> ids = {0, 1, 2};
  double mean = MeanDistinctPatternsRandom(ids, 100, 10, netsim::Rng(6));
  EXPECT_DOUBLE_EQ(mean, 3.0);
}

}  // namespace
}  // namespace hobbit::analysis
