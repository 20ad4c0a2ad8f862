#include "hobbit/pipeline.h"

#include <gtest/gtest.h>

#include <map>

#include "netsim/internet.h"
#include "test_util.h"

namespace hobbit::core {
namespace {

PipelineConfig SmallPipeline(std::uint64_t seed) {
  PipelineConfig config;
  config.seed = seed;
  config.calibration_blocks = 60;
  config.samples_per_block = 48;
  config.prober.min_cell_trials = 100;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    internet_ = netsim::BuildInternet(netsim::TinyConfig(21));
    result_ = RunPipeline(internet_, SmallPipeline(21));
  }
  netsim::Internet internet_;
  PipelineResult result_;
};

TEST_F(PipelineTest, EveryStudyBlockGetsAResult) {
  EXPECT_EQ(result_.results.size(), result_.study_blocks.size());
  EXPECT_EQ(result_.stats.study_24s, result_.study_blocks.size());
  EXPECT_GT(result_.stats.study_24s, 0u);
  EXPECT_GE(result_.stats.candidate_24s, result_.stats.study_24s);
}

TEST_F(PipelineTest, ClassificationCountsSumToUniverse) {
  auto counts = result_.classification_counts();
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, result_.results.size());
}

TEST_F(PipelineTest, HomogeneousBlocksCarryLastHopSets) {
  auto homogeneous = result_.HomogeneousBlocks();
  EXPECT_GT(homogeneous.size(), 0u);
  for (const BlockResult* block : homogeneous) {
    EXPECT_FALSE(block->last_hop_set.empty()) << block->prefix.ToString();
    EXPECT_TRUE(IsHomogeneous(block->classification));
  }
}

TEST_F(PipelineTest, CalibrationDatasetIsPopulated) {
  EXPECT_GT(result_.calibration.size(), 0u);
  EXPECT_LE(result_.calibration.size(), 60u);
  // The confidence table must carry data for small cardinalities.
  bool any_cell = false;
  for (int n = 4; n <= 64 && !any_cell; ++n) {
    any_cell = result_.table.Trials(2, n) > 0;
  }
  EXPECT_TRUE(any_cell);
}

TEST_F(PipelineTest, AccuracyAgainstGroundTruth) {
  // Among analyzable blocks, Hobbit's homogeneity verdict should agree
  // with ground truth for the overwhelming majority (the paper argues
  // >= 95 % for the homogeneous side).
  std::size_t analyzable = 0, correct = 0;
  for (std::size_t i = 0; i < result_.results.size(); ++i) {
    const BlockResult& r = result_.results[i];
    if (!IsAnalyzable(r.classification)) continue;
    const netsim::TruthRecord* truth = internet_.TruthOf(r.prefix);
    ASSERT_NE(truth, nullptr);
    ++analyzable;
    bool says_homogeneous = IsHomogeneous(r.classification);
    correct += says_homogeneous == !truth->heterogeneous;
  }
  ASSERT_GT(analyzable, 20u);
  EXPECT_GE(static_cast<double>(correct) / analyzable, 0.87)
      << correct << "/" << analyzable;
}

TEST_F(PipelineTest, HomogeneousVerdictsAreAlmostAlwaysRight) {
  // The specific guarantee Hobbit aims for: when it says "homogeneous",
  // the ground truth agrees (false positives come only from unlucky
  // non-hierarchy in genuinely split blocks, which are rare).
  std::size_t said_homogeneous = 0, truly_homogeneous = 0;
  for (const BlockResult& r : result_.results) {
    if (!IsHomogeneous(r.classification)) continue;
    const netsim::TruthRecord* truth = internet_.TruthOf(r.prefix);
    ++said_homogeneous;
    truly_homogeneous += !truth->heterogeneous;
  }
  ASSERT_GT(said_homogeneous, 20u);
  EXPECT_GT(static_cast<double>(truly_homogeneous) / said_homogeneous,
            0.97);
}

TEST_F(PipelineTest, DeterministicForSameSeed) {
  PipelineResult again = RunPipeline(internet_, SmallPipeline(21));
  ASSERT_EQ(again.results.size(), result_.results.size());
  for (std::size_t i = 0; i < again.results.size(); ++i) {
    EXPECT_EQ(again.results[i].classification,
              result_.results[i].classification);
    EXPECT_EQ(again.results[i].last_hop_set,
              result_.results[i].last_hop_set);
  }
  EXPECT_EQ(again.stats.probes_sent, result_.stats.probes_sent);
}

TEST_F(PipelineTest, AdaptiveProbingBeatsExhaustive) {
  // The adaptive prober must use far fewer probes per block than the
  // exhaustive calibration strategy.
  double calibration_obs = 0;
  for (const auto& block : result_.calibration) {
    calibration_obs += static_cast<double>(block.observations.size());
  }
  calibration_obs /= static_cast<double>(result_.calibration.size());
  double main_obs = 0;
  std::size_t analyzable = 0;
  for (const auto& r : result_.results) {
    if (!IsAnalyzable(r.classification)) continue;
    main_obs += static_cast<double>(r.observations.size());
    ++analyzable;
  }
  main_obs /= static_cast<double>(analyzable);
  EXPECT_LT(main_obs, calibration_obs * 0.6)
      << "adaptive " << main_obs << " vs exhaustive " << calibration_obs;
}

TEST_F(PipelineTest, ReprobeSupersetsStandardLastHops) {
  // §6.5: the exhaustive reprobe strategy should find at least as many
  // last hops as the adaptive run did, for homogeneous blocks.
  int checked = 0;
  BlockProber prober = MakeReprobeProber(internet_);
  for (std::size_t i = 0; i < result_.results.size() && checked < 10; ++i) {
    const BlockResult& r = result_.results[i];
    if (!IsHomogeneous(r.classification)) continue;
    BlockResult reprobed = ReprobeBlock(prober, result_.study_blocks[i], 999);
    for (netsim::Ipv4Address router : r.last_hop_set) {
      EXPECT_TRUE(std::binary_search(reprobed.last_hop_set.begin(),
                                     reprobed.last_hop_set.end(), router))
          << r.prefix.ToString() << " lost " << router.ToString();
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PipelineTest, ReusedReprobeProberMatchesFreshProbers) {
  // Reuse is legal: a reprobe is a pure function of (block, seed), so one
  // prober carried across ~50 blocks (warm route memo) returns exactly
  // what a fresh prober per block (cold memo) does.
  BlockProber reused = MakeReprobeProber(internet_);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < result_.study_blocks.size() && compared < 50;
       i += 2, ++compared) {
    const probing::ZmapBlock& block = result_.study_blocks[i];
    const std::uint64_t seed = 0x5EED00ULL + i;
    BlockResult warm = ReprobeBlock(reused, block, seed);
    BlockProber fresh_prober = MakeReprobeProber(internet_);
    BlockResult fresh = ReprobeBlock(fresh_prober, block, seed);
    SCOPED_TRACE(block.prefix.ToString());
    EXPECT_EQ(warm.last_hop_set, fresh.last_hop_set);
    EXPECT_EQ(warm.probes_used, fresh.probes_used);
    ASSERT_EQ(warm.observations.size(), fresh.observations.size());
    for (std::size_t k = 0; k < warm.observations.size(); ++k) {
      EXPECT_EQ(warm.observations[k].address, fresh.observations[k].address);
      EXPECT_TRUE(warm.observations[k].last_hops ==
                  fresh.observations[k].last_hops);
    }
  }
  EXPECT_EQ(compared, 50u);
}

TEST_F(PipelineTest, ProbesSentMatchesIndependentSendCount) {
  // PipelineStats::probes_sent sums the per-shard probers' counts; an
  // independent hook on the simulator must see exactly that many packets
  // (the zmap snapshot reads liveness without sending probes).
  test::ForEachPool({1, 4}, [&](common::ThreadPool* pool) {
    PipelineConfig config = SmallPipeline(21);
    config.pool = pool;
    test::SendCounter sends(*internet_.simulator);
    PipelineResult result = RunPipeline(internet_, config);
    EXPECT_GT(result.stats.probes_sent, 0u);
    EXPECT_EQ(result.stats.probes_sent, sends.count());
  });
}

TEST_F(PipelineTest, ThreadCountDoesNotChangeResults) {
  // result_ ran with no pool (serial on the calling thread).
  common::ThreadPool pool(4);
  PipelineConfig threaded = SmallPipeline(21);
  threaded.pool = &pool;
  PipelineResult parallel = RunPipeline(internet_, threaded);
  ASSERT_EQ(parallel.results.size(), result_.results.size());
  for (std::size_t i = 0; i < parallel.results.size(); ++i) {
    EXPECT_EQ(parallel.results[i].classification,
              result_.results[i].classification);
    EXPECT_EQ(parallel.results[i].last_hop_set,
              result_.results[i].last_hop_set);
    EXPECT_EQ(parallel.results[i].probes_used,
              result_.results[i].probes_used);
  }
  ASSERT_EQ(parallel.calibration.size(), result_.calibration.size());
  for (std::size_t i = 0; i < parallel.calibration.size(); ++i) {
    EXPECT_EQ(parallel.calibration[i].cardinality,
              result_.calibration[i].cardinality);
    EXPECT_EQ(parallel.calibration[i].homogeneous,
              result_.calibration[i].homogeneous);
  }
  EXPECT_EQ(parallel.stats.probes_sent, result_.stats.probes_sent);
}

}  // namespace
}  // namespace hobbit::core
