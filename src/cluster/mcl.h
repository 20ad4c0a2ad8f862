// mcl.h — the Markov Cluster algorithm (van Dongen 2000), from scratch.
//
// The paper clusters /24 blocks whose last-hop-router sets overlap but are
// not identical (§6.2-§6.4).  MCL simulates flow on the similarity graph:
// expansion (matrix squaring) lets flow reach farther, inflation
// (entry-wise powering + renormalisation) strengthens strong currents and
// starves weak ones; iterated, the process converges to a forest of
// attractors whose basins are the clusters.  The inflation exponent is the
// granularity knob the paper sweeps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hobbit::common {
class ThreadPool;
}

namespace hobbit::cluster {

/// An undirected weighted graph given as an edge list over vertices
/// [0, n).
struct Graph {
  std::uint32_t vertex_count = 0;
  struct Edge {
    std::uint32_t a;
    std::uint32_t b;
    double weight;
  };
  std::vector<Edge> edges;
};

struct MclParams {
  double inflation = 2.0;
  /// Self-loop weight added to every vertex before normalisation (van
  /// Dongen recommends ~1 for undirected similarity graphs).
  double self_loop = 1.0;
  int max_iterations = 64;
  /// Convergence: stop when the iterate changes less than this.
  double epsilon = 1e-6;
  /// Pruning keeps iterates sparse.
  double prune_threshold = 1e-5;
  std::size_t max_entries_per_column = 64;
  /// The caller's pool for expansion/inflation/pruning (column-sharded);
  /// null runs serially.  Results are bit-identical for any thread
  /// count; see src/common/parallel.h.
  common::ThreadPool* pool = nullptr;
};

/// The clustering: every vertex appears in exactly one cluster; clusters
/// of size one are singletons ("unclustered" in the paper's terms).
struct MclResult {
  std::vector<std::vector<std::uint32_t>> clusters;
  int iterations = 0;

  /// Clusters with at least two members.
  std::size_t NontrivialCount() const {
    std::size_t n = 0;
    for (const auto& c : clusters) n += c.size() >= 2 ? 1 : 0;
    return n;
  }
};

/// Runs MCL on the whole graph.
MclResult RunMcl(const Graph& graph, const MclParams& params = {});

/// The paper's parameter-selection procedure (§6.4): run MCL under each
/// candidate inflation and pick the one minimising the percentage of
/// intra-cluster edges whose weight is below the median of all edge
/// weights.
struct SweepOutcome {
  double best_inflation = 2.0;
  double best_bad_edge_ratio = 1.0;
  std::vector<std::pair<double, double>> tried;  // (inflation, ratio)
};
SweepOutcome SweepInflation(const Graph& graph,
                            std::span<const double> candidates,
                            const MclParams& base_params = {});

}  // namespace hobbit::cluster
