#include "hobbit/pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/parallel.h"

namespace hobbit::core {

std::string ToString(Classification c) {
  switch (c) {
    case Classification::kTooFewActive: return "Too few active";
    case Classification::kUnresponsiveLastHop: return "Unresponsive last-hop";
    case Classification::kSameLastHop: return "Same last-hop router";
    case Classification::kNonHierarchical: return "Non-hierarchical";
    case Classification::kDifferentButHierarchical:
      return "Different but hierarchical";
  }
  return "?";
}

std::array<std::size_t, 5> PipelineResult::classification_counts() const {
  std::array<std::size_t, 5> counts{};
  for (const BlockResult& r : results) {
    counts[static_cast<std::size_t>(r.classification)]++;
  }
  return counts;
}

std::vector<const BlockResult*> PipelineResult::HomogeneousBlocks() const {
  std::vector<const BlockResult*> out;
  for (const BlockResult& r : results) {
    if (IsHomogeneous(r.classification)) out.push_back(&r);
  }
  return out;
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

CampaignSetup PrepareCampaign(const netsim::Internet& internet,
                              const PipelineConfig& config,
                              const netsim::Simulator* simulator) {
  if (simulator == nullptr) simulator = internet.simulator.get();
  common::ThreadPool* pool = config.pool;
  CampaignSetup setup;
  // The root RNG is never advanced, only forked: every stage derives its
  // stream from (seed, constant), so stages can be re-run or resumed
  // independently without replaying the streams of earlier ones.
  const netsim::Rng rng(config.seed);

  // Stage 0: snapshot + universe selection (liveness read through the
  // chosen simulator's epoch), scanned on the campaign's pool.
  const auto snapshot_start = std::chrono::steady_clock::now();
  probing::ZmapSnapshot snapshot =
      probing::RunZmapScan(internet, internet.study_24s, simulator, pool);
  setup.stats.snapshot_active_addresses = snapshot.ActiveCount();
  setup.stats.candidate_24s = snapshot.blocks.size();
  setup.study_blocks = probing::SelectStudyBlocks(snapshot);
  setup.stats.study_24s = setup.study_blocks.size();
  setup.stats.snapshot_seconds = SecondsSince(snapshot_start);

  // Stage 1: calibration — exhaustively probe a uniform sample.
  const auto calibration_start = std::chrono::steady_clock::now();
  {
    const std::size_t universe = setup.study_blocks.size();
    std::size_t want = std::min<std::size_t>(
        universe, static_cast<std::size_t>(std::max(0,
                                                    config.calibration_blocks)));
    // Uniform sample without replacement via partial Fisher-Yates over
    // indices.
    std::vector<std::uint32_t> indices(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      indices[i] = static_cast<std::uint32_t>(i);
    }
    netsim::Rng sample_rng = rng.Fork(0xCA11BULL);
    for (std::size_t i = 0; i < want; ++i) {
      std::size_t j = i + sample_rng.NextBelow(universe - i);
      std::swap(indices[i], indices[j]);
    }
    setup.calibration.resize(want);
    // One prober per shard, reused across that shard's contiguous run of
    // blocks: the prober carries warm per-campaign state (its route
    // memo), and each block's result depends only on its own RNG fork,
    // so the chunk->block assignment cannot change any output (see
    // tests/test_concurrency.cpp).  Contiguous chunks keep each shard
    // writing adjacent result slots instead of striding the array.
    common::PerShard<std::uint64_t> probes(common::ThreadCount(pool));
    common::ForEachChunk(pool, want, 1, [&](common::ChunkRange chunk) {
      BlockProber shard_prober(simulator, nullptr, config.prober);
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        setup.calibration[i] = shard_prober.ProbeBlockFully(
            setup.study_blocks[indices[i]], rng.Fork(indices[i]));
      }
      *probes[chunk.shard] += shard_prober.probes_sent();
    });
    setup.stats.probes_sent += common::SumShards(probes);
  }
  setup.table = ConfidenceTable::Build(setup.calibration,
                                       rng.Fork(0x7AB1EULL),
                                       config.samples_per_block);
  setup.stats.calibration_seconds = SecondsSince(calibration_start);
  return setup;
}

PipelineResult RunPipeline(const netsim::Internet& internet,
                           const PipelineConfig& config,
                           const netsim::Simulator* simulator) {
  if (simulator == nullptr) simulator = internet.simulator.get();

  PipelineResult result;
  {
    CampaignSetup setup = PrepareCampaign(internet, config, simulator);
    result.study_blocks = std::move(setup.study_blocks);
    result.calibration = std::move(setup.calibration);
    result.table = std::move(setup.table);
    result.stats = setup.stats;
  }

  // Stage 2: the main measurement.
  const auto measurement_start = std::chrono::steady_clock::now();
  {
    result.results.resize(result.study_blocks.size());
    const std::size_t block_count = result.study_blocks.size();
    common::PerShard<std::uint64_t> probes(common::ThreadCount(config.pool));
    common::ForEachChunk(config.pool, block_count, 1,
                         [&](common::ChunkRange chunk) {
      BlockProber shard_prober(simulator, &result.table, config.prober);
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        result.results[i] = shard_prober.ProbeBlock(
            result.study_blocks[i], MeasurementRng(config.seed, i));
      }
      *probes[chunk.shard] += shard_prober.probes_sent();
    });
    result.stats.probes_sent += common::SumShards(probes);
  }
  result.stats.measurement_seconds = SecondsSince(measurement_start);
  return result;
}

BlockProber MakeReprobeProber(const netsim::Internet& internet) {
  ProberOptions options;
  options.reprobe_strategy = true;
  return BlockProber(internet.simulator.get(), nullptr, options);
}

BlockResult ReprobeBlock(BlockProber& prober, const probing::ZmapBlock& block,
                         std::uint64_t seed) {
  assert(prober.options().reprobe_strategy);
  return prober.ProbeBlock(block, netsim::Rng(seed));
}

}  // namespace hobbit::core
