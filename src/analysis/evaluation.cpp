#include "analysis/evaluation.h"

#include <algorithm>
#include <map>

#include "hobbit/hierarchy.h"

namespace hobbit::analysis {

VerdictEvaluation EvaluateVerdicts(const netsim::Internet& internet,
                                   const core::PipelineResult& result) {
  VerdictEvaluation evaluation;
  for (const core::BlockResult& r : result.results) {
    if (!core::IsAnalyzable(r.classification)) {
      ++evaluation.not_analyzable;
      continue;
    }
    const netsim::TruthRecord* truth = internet.TruthOf(r.prefix);
    if (truth == nullptr) continue;
    const bool said_homogeneous = core::IsHomogeneous(r.classification);
    if (said_homogeneous && !truth->heterogeneous) {
      ++evaluation.true_homogeneous;
    } else if (said_homogeneous && truth->heterogeneous) {
      ++evaluation.false_homogeneous;
    } else if (!said_homogeneous && truth->heterogeneous) {
      ++evaluation.true_heterogeneous;
    } else {
      ++evaluation.false_heterogeneous;
    }
  }
  return evaluation;
}

FlagEvaluation EvaluateAlignedDisjointFlag(
    const netsim::Internet& internet, const core::PipelineResult& result) {
  FlagEvaluation evaluation;
  core::BlockProber prober = core::MakeReprobeProber(internet);
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    const core::BlockResult& r = result.results[i];
    if (r.classification !=
        core::Classification::kDifferentButHierarchical) {
      continue;
    }
    core::BlockResult full =
        core::ReprobeBlock(prober, result.study_blocks[i], 0xF1A6ULL + i);
    auto groups = core::GroupByLastHop(full.observations);
    if (!core::IsAlignedDisjoint(groups)) continue;
    ++evaluation.flagged;
    const netsim::TruthRecord* truth = internet.TruthOf(r.prefix);
    if (truth != nullptr && truth->heterogeneous) {
      ++evaluation.flagged_truly_heterogeneous;
    }
  }
  return evaluation;
}

AggregationEvaluation EvaluateAggregation(
    const netsim::Internet& internet,
    std::span<const cluster::AggregateBlock> blocks) {
  AggregationEvaluation evaluation;

  // Purity, plus per-truth-block membership for completeness.
  std::map<std::uint64_t, std::map<const cluster::AggregateBlock*,
                                   std::uint64_t>>
      truth_membership;
  for (const cluster::AggregateBlock& block : blocks) {
    ++evaluation.blocks;
    std::uint64_t first_truth = 0;
    bool pure = true, first = true;
    for (const netsim::Prefix& p : block.member_24s) {
      const netsim::TruthRecord* truth = internet.TruthOf(p);
      if (truth == nullptr) continue;
      ++truth_membership[truth->truth_block][&block];
      if (first) {
        first_truth = truth->truth_block;
        first = false;
      } else if (truth->truth_block != first_truth) {
        pure = false;
      }
    }
    evaluation.pure_blocks += pure ? 1 : 0;
  }

  // Completeness: for every ground-truth block with >= 2 measured member
  // /24s, the largest fraction landing in one measured block.
  double total = 0.0;
  std::uint64_t counted = 0;
  for (const auto& [truth_id, membership] : truth_membership) {
    std::uint64_t members = 0, largest = 0;
    for (const auto& [block, count] : membership) {
      members += count;
      largest = std::max(largest, count);
    }
    if (members < 2) continue;
    total += static_cast<double>(largest) / static_cast<double>(members);
    ++counted;
  }
  evaluation.mean_completeness = counted == 0 ? 0.0 : total / counted;
  return evaluation;
}

}  // namespace hobbit::analysis
