#include "cluster/mcl.h"

#include <algorithm>
#include <numeric>

#include "cluster/sparse.h"

namespace hobbit::cluster {
namespace {

SparseMatrix BuildTransitionMatrix(const Graph& graph,
                                   const MclParams& params) {
  std::vector<SparseMatrix::Triplet> triplets;
  triplets.reserve(graph.edges.size() * 2 + graph.vertex_count);
  for (const Graph::Edge& e : graph.edges) {
    if (e.a == e.b) continue;
    triplets.push_back({e.a, e.b, e.weight});
    triplets.push_back({e.b, e.a, e.weight});
  }
  for (std::uint32_t v = 0; v < graph.vertex_count; ++v) {
    triplets.push_back({v, v, params.self_loop});
  }
  SparseMatrix m = SparseMatrix::FromTriplets(graph.vertex_count,
                                              std::move(triplets));
  m.NormalizeColumns();
  return m;
}

/// Reads clusters off a converged matrix: vertex v belongs with the
/// attractor(s) its column flows to; weakly-connected components of the
/// "v -> argmax-row(column v)" structure give the clusters.
std::vector<std::vector<std::uint32_t>> Interpret(const SparseMatrix& m) {
  const std::uint32_t n = m.size();
  // Union-find over attractor assignment.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<std::uint32_t> stack;
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[a] = b;
  };
  for (std::uint32_t c = 0; c < n; ++c) {
    SparseMatrix::ColumnView col = m.Column(c);
    // Union with every row the column still flows to (the converged
    // support is within one cluster).
    for (std::size_t i = 0; i < col.count; ++i) {
      if (col.values[i] > 1e-7) unite(c, col.rows[i]);
    }
  }
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::int64_t> cluster_of(n, -1);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t root = find(v);
    if (cluster_of[root] < 0) {
      cluster_of[root] = static_cast<std::int64_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[static_cast<std::size_t>(cluster_of[root])].push_back(v);
  }
  return clusters;
}

}  // namespace

MclResult RunMcl(const Graph& graph, const MclParams& params) {
  MclResult result;
  if (graph.vertex_count == 0) return result;
  SparseMatrix m = BuildTransitionMatrix(graph, params);
  for (int iteration = 0; iteration < params.max_iterations; ++iteration) {
    // Expansion, inflation, pruning, renormalization and the
    // convergence delta, fused into a single pool dispatch —
    // bit-identical to the Multiply/Inflate/Prune sequence it replaced
    // (pinned by tests/test_sparse.cpp and test_mcl.cpp).
    double delta = 0.0;
    m = m.MclIterate(params.inflation, params.prune_threshold,
                     params.max_entries_per_column, params.pool, &delta);
    result.iterations = iteration + 1;
    if (delta < params.epsilon) break;
  }
  result.clusters = Interpret(m);
  return result;
}

SweepOutcome SweepInflation(const Graph& graph,
                            std::span<const double> candidates,
                            const MclParams& base_params) {
  SweepOutcome outcome;
  if (graph.edges.empty()) return outcome;

  // Median of all edge weights.
  std::vector<double> weights;
  weights.reserve(graph.edges.size());
  for (const Graph::Edge& e : graph.edges) weights.push_back(e.weight);
  auto mid = weights.begin() +
             static_cast<std::ptrdiff_t>(weights.size() / 2);
  std::nth_element(weights.begin(), mid, weights.end());
  const double median = *mid;

  bool first = true;
  for (double inflation : candidates) {
    MclParams params = base_params;
    params.inflation = inflation;
    MclResult mcl = RunMcl(graph, params);
    // Map vertex -> cluster.
    std::vector<std::uint32_t> cluster_of(graph.vertex_count, 0);
    for (std::uint32_t c = 0; c < mcl.clusters.size(); ++c) {
      for (std::uint32_t v : mcl.clusters[c]) cluster_of[v] = c;
    }
    std::size_t intra = 0;
    std::size_t intra_bad = 0;
    for (const Graph::Edge& e : graph.edges) {
      if (cluster_of[e.a] != cluster_of[e.b]) continue;
      ++intra;
      if (e.weight < median) ++intra_bad;
    }
    const double ratio =
        intra == 0 ? 1.0 : static_cast<double>(intra_bad) / intra;
    outcome.tried.emplace_back(inflation, ratio);
    if (first || ratio < outcome.best_bad_edge_ratio) {
      outcome.best_bad_edge_ratio = ratio;
      outcome.best_inflation = inflation;
      first = false;
    }
  }
  return outcome;
}

}  // namespace hobbit::cluster
