// pipeline.h — the end-to-end measurement campaign.
//
// Mirrors the paper's workflow:
//   1. ZMap snapshot over the candidate space; keep /24s whose every /26
//      has an active address (§3.3).
//   2. Calibration: exhaustively probe a sample of blocks and build the
//      <cardinality, probes> confidence table (§3.2, Fig 4).
//   3. Main measurement: adaptively probe every study /24 (§3.5) and
//      classify it (Table 1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hobbit/confidence.h"
#include "hobbit/prober.h"
#include "hobbit/types.h"
#include "netsim/internet.h"
#include "probing/zmap.h"

namespace hobbit::common {
class ThreadPool;
}

namespace hobbit::core {

struct PipelineConfig {
  std::uint64_t seed = 1;
  /// The caller's pool, shared with the clustering stages; null runs
  /// every stage serially on the calling thread.  Results are
  /// bit-identical either way and for any thread count (each block's
  /// probing is self-contained and deterministically seeded).
  common::ThreadPool* pool = nullptr;
  /// Blocks probed exhaustively in the calibration stage.
  int calibration_blocks = 1500;
  /// Random destination subsets evaluated per calibration block.
  int samples_per_block = 64;
  ProberOptions prober;
};

struct PipelineStats {
  std::uint64_t snapshot_active_addresses = 0;
  std::size_t candidate_24s = 0;   ///< /24s with any snapshot responder
  std::size_t study_24s = 0;       ///< /24s passing the /26 criterion
  std::uint64_t probes_sent = 0;   ///< calibration + measurement packets
  // Wall-clock breakdown of the campaign, for the perf benchmarks
  // (bench/bench_pipeline_scaling.cpp).
  double snapshot_seconds = 0.0;     ///< stage 0: zmap scan + selection
  double calibration_seconds = 0.0;  ///< stage 1 incl. the table build
  double measurement_seconds = 0.0;  ///< stage 2: the main campaign
};

struct PipelineResult {
  /// The study universe (sorted by prefix) and its snapshot records.
  std::vector<probing::ZmapBlock> study_blocks;
  /// Main-measurement outcome, parallel to study_blocks.
  std::vector<BlockResult> results;
  /// Calibration dataset (exhaustively probed blocks).
  std::vector<FullyProbedBlock> calibration;
  ConfidenceTable table;
  PipelineStats stats;

  /// Counts per Classification value, Table 1 style.
  std::array<std::size_t, 5> classification_counts() const;

  /// The homogeneous blocks (same-last-hop or non-hierarchical), each with
  /// its observed last-hop set — the input to aggregation (§5).
  std::vector<const BlockResult*> HomogeneousBlocks() const;
};

/// Stages 0 + 1 of a campaign as a resumable unit: the zmap snapshot and
/// universe selection, then the calibration sample and confidence table.
/// Both the batch RunPipeline and the streaming campaign driver
/// (src/stream) start from this, so their measurement inputs — study
/// list, table, per-block RNG forks — are identical by construction.
struct CampaignSetup {
  /// The study universe (sorted by prefix) and its snapshot records.
  std::vector<probing::ZmapBlock> study_blocks;
  /// Calibration dataset (exhaustively probed blocks).
  std::vector<FullyProbedBlock> calibration;
  ConfidenceTable table;
  /// snapshot_* / calibration fields filled; measurement fields are the
  /// caller's to add.
  PipelineStats stats;
};

/// Runs stages 0 + 1 on config.pool.  `simulator` selects the probed
/// view (nullptr = the internet's primary).  Deterministic in
/// (config.seed, world); thread-count invariant like every stage.
CampaignSetup PrepareCampaign(const netsim::Internet& internet,
                              const PipelineConfig& config,
                              const netsim::Simulator* simulator);

/// The per-block RNG of the main measurement: a pure function of the
/// campaign seed and the block's index in the sorted study list.  Batch
/// and streaming measurement both fork from here, which is what makes
/// their classifications bit-identical regardless of stage shape,
/// thread count or arrival order.
inline netsim::Rng MeasurementRng(std::uint64_t seed, std::size_t index) {
  return netsim::Rng(seed).Fork(0xB10CULL + index);
}

/// Runs the campaign.  `simulator` overrides the internet's primary
/// simulator (another vantage or a later epoch); nullptr uses the
/// default.
PipelineResult RunPipeline(const netsim::Internet& internet,
                           const PipelineConfig& config,
                           const netsim::Simulator* simulator = nullptr);

/// A reprobe-mode prober (§6.5 strategy: no early stop, MDA-confident
/// exhaustion of the last-hop set) on the internet's primary simulator.
/// Build one per loop or per worker and pass it to every ReprobeBlock
/// call there: its route memo then stays warm across blocks, instead of
/// zero-filling a fresh one (router_count × 64 B) for every /24.
BlockProber MakeReprobeProber(const netsim::Internet& internet);

/// §6.5 reprobing: re-measures one /24 through `prober`, which must be in
/// reprobe mode (MakeReprobeProber), and returns the full observation
/// set.  The result is a pure function of (block, seed): the prober's
/// memo is exact, so which blocks it probed before cannot change it.
BlockResult ReprobeBlock(BlockProber& prober, const probing::ZmapBlock& block,
                         std::uint64_t seed);

}  // namespace hobbit::core
