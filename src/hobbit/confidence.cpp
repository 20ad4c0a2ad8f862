#include "hobbit/confidence.h"

#include <algorithm>

#include "hobbit/hierarchy.h"

namespace hobbit::core {

void ConfidenceTable::Record(int cardinality, int probed, bool success) {
  Cell& cell = At(cardinality, probed);
  ++cell.trials;
  if (success) ++cell.successes;
}

std::optional<double> ConfidenceTable::Confidence(
    int cardinality, int probed, std::uint32_t min_trials) const {
  const Cell& cell = At(cardinality, probed);
  if (cell.trials < min_trials || cell.trials == 0) return std::nullopt;
  return static_cast<double>(cell.successes) / cell.trials;
}

std::uint64_t ConfidenceTable::Trials(int cardinality, int probed) const {
  return At(cardinality, probed).trials;
}

std::optional<int> ConfidenceTable::RequiredProbes(
    int cardinality, double level, std::uint32_t min_trials) const {
  for (int n = 1; n <= kMaxProbed; ++n) {
    auto c = Confidence(cardinality, n, min_trials);
    if (c && *c >= level) return n;
  }
  return std::nullopt;
}

ConfidenceTable ConfidenceTable::Build(
    std::span<const FullyProbedBlock> dataset, netsim::Rng rng,
    int samples_per_block) {
  // Hobbit declares homogeneity the moment a *prefix* of the probing
  // sequence groups non-hierarchically; non-laminarity is not monotone
  // (growing ranges can nest again), so the success probability of the
  // real prober is a first-passage probability over probing orders — not
  // the probability that a random subset looks non-hierarchical.  Each
  // sample therefore walks one random permutation of the block's
  // observations and records, for every prefix length k, whether the walk
  // has passed by k, keyed by the cardinality *observed at k* (all the
  // prober can see when it consults the table).
  ConfidenceTable table;
  std::vector<std::uint32_t> indices;
  // Same incremental machinery the prober runs, so the table is trained
  // on exactly the statistic the prober consults.
  IncrementalGrouping grouping;
  for (const FullyProbedBlock& block : dataset) {
    if (!block.homogeneous) continue;
    const auto total = static_cast<std::uint32_t>(block.observations.size());
    if (total < 4) continue;
    indices.resize(total);
    for (std::uint32_t i = 0; i < total; ++i) indices[i] = i;
    const auto walk_limit =
        std::min<std::uint32_t>(total, ConfidenceTable::kMaxProbed);
    for (int s = 0; s < samples_per_block; ++s) {
      for (std::uint32_t i = 0; i + 1 < total; ++i) {
        auto j = static_cast<std::uint32_t>(i + rng.NextBelow(total - i));
        std::swap(indices[i], indices[j]);
      }
      grouping.Clear();
      bool passed = false;
      for (std::uint32_t k = 0; k < walk_limit; ++k) {
        grouping.Add(block.observations[indices[k]]);
        if (!passed && grouping.group_count() >= 2) {
          passed = !grouping.Hierarchical();
        }
        const int probed = static_cast<int>(k) + 1;
        // Record only the states in which the prober actually consults
        // the table: no common last hop across the addresses so far (a
        // shared interface triggers the six-destination rule instead).
        if (probed >= 4 && !grouping.HasCommonLastHop()) {
          table.Record(static_cast<int>(grouping.group_count()), probed,
                       passed);
        }
      }
    }
  }
  return table;
}

}  // namespace hobbit::core
