// campaign.h — the batch chain from a simulated Internet to a loaded
// snapshot, with its output checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/aggregate.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace e2ebench {

struct ChainResult {
  hobbit::core::PipelineResult pipeline;
  std::vector<hobbit::cluster::AggregateBlock> final_blocks;
  std::optional<hobbit::serve::Snapshot> snapshot;
  double wall_s = 0.0;           ///< RunPipeline through the loaded snapshot
  double pipeline_cpu_s = 0.0;   ///< process CPU during RunPipeline
  double pipeline_wall_s = 0.0;
  double validate_cpu_s = 0.0;   ///< process CPU during ValidateClusters
  double validate_wall_s = 0.0;
  std::size_t aggregates = 0;
  std::size_t clusters = 0;
  std::size_t validated = 0;
  /// Empty when every output check passed, else the first failure.
  std::string error;
};

/// Runs RunPipeline -> AggregateIdentical -> RunMclAggregation ->
/// ValidateClusters -> MergeValidatedClusters -> CompileSnapshotV2 ->
/// Snapshot::FromBuffer on `pool`, then checks the outputs.  With tracing
/// on, each call gets a span and BuildSimilarityGraph runs once more on
/// the same aggregates.  `corrupt_block` copies a /24 of block 0 into
/// block 1 before compiling (a test hook the checks must catch).
ChainResult RunChain(const hobbit::netsim::Internet& internet,
                     std::uint64_t seed, double scale,
                     hobbit::common::ThreadPool* pool, Tracer* tracer,
                     bool corrupt_block);

}  // namespace e2ebench
