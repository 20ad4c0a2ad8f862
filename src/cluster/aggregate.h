// aggregate.h — building homogeneous blocks larger than /24.
//
// Stage 1 (§5): merge measured /24s whose observed last-hop router sets
// are *identical* — the all-or-nothing aggregation behind Figure 5 and
// Table 5.
//
// Stage 2 (§6): /24s that are truly colocated can still show overlapping
// but non-identical sets when some load-balanced last hops were never
// sampled (few responsive addresses).  Model aggregates as vertices of a
// similarity graph, split into connected components, cluster with MCL
// (inflation chosen by the paper's bad-edge sweep), then *validate*
// clusters by reprobing member pairs with the exhaustive strategy.  An
// experimental rule over the within-cluster similarity distribution
// (§6.6) predicts which clusters validation will confirm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/mcl.h"
#include "hobbit/pipeline.h"
#include "hobbit/types.h"
#include "netsim/internet.h"
#include "netsim/ipv4.h"
#include "probing/zmap.h"

namespace hobbit::cluster {

/// One aggregated homogeneous block: a set of /24s sharing one last-hop
/// router set.
struct AggregateBlock {
  std::vector<netsim::Prefix> member_24s;        // sorted
  std::vector<netsim::Ipv4Address> last_hops;    // sorted, the shared set
};

/// §5.1: groups homogeneous /24s by identical last-hop sets.  Aggregates
/// come back in canonical order (SortCanonical).
std::vector<AggregateBlock> AggregateIdentical(
    std::span<const core::BlockResult* const> homogeneous_blocks);

/// The canonical block order every block list is published in: each
/// block's members ascending, then blocks by descending member count,
/// ties by first member.  Blocks must be non-empty and member-disjoint,
/// which makes the order total.
void SortCanonical(std::vector<AggregateBlock>& blocks);

/// §6.3: the similarity graph.  Vertices are aggregates; an edge connects
/// two aggregates with overlapping last-hop sets, weighted
/// |A ∩ B| / max(|A|, |B|).  (Weight-1 edges cannot occur: identical sets
/// were already merged.)  Candidate pairs come from a flat sorted
/// (router, vertex) inverted index; edge generation shards over vertices
/// on `pool`, and the edge list comes back sorted by (a, b) regardless of
/// thread count (pinned against a brute-force all-pairs oracle in
/// tests/test_aggregate.cpp).
Graph BuildSimilarityGraph(std::span<const AggregateBlock> aggregates,
                           common::ThreadPool* pool = nullptr);

/// §6.6: the experimental rule.  Looks at the distribution of pairwise
/// /24-level similarity inside a cluster (within-aggregate pairs count as
/// similarity 1) and matches clusters whose mass sits high.
struct RuleParams {
  /// A /24 pair counts as "high similarity" at or above this score.
  double high_similarity = 0.6;
  /// Required fraction of high-similarity pairs.
  double min_fraction_high = 0.65;
  /// Every aggregate pair must overlap at least this much — one weakly
  /// attached member disqualifies the cluster (transitive MCL merges of
  /// genuinely different gateway sets typically contain such a pair).
  double min_pair_similarity = 0.25;
};

/// One MCL cluster of aggregates, plus validation state.
struct ClusterInfo {
  std::vector<std::uint32_t> aggregate_ids;  ///< >= 2 members
  bool matches_rule = false;
  /// Reprobe outcome: ratio of sampled /24 pairs with identical reprobed
  /// last-hop sets (Fig 9); negative until validated.
  double identical_pair_ratio = -1.0;
  bool validated_homogeneous = false;
};

struct MclAggregationParams {
  std::vector<double> inflation_candidates = {1.4, 1.6, 2.0, 2.6, 3.2, 4.0};
  MclParams mcl;
  RuleParams rule;
};

struct MclAggregationResult {
  std::vector<ClusterInfo> clusters;          ///< nontrivial clusters
  std::vector<std::uint32_t> unclustered;     ///< singleton aggregates
  double chosen_inflation = 2.0;
  std::size_t component_count = 0;
};

/// Runs preprocessing (components) + inflation sweep + MCL + rule.
MclAggregationResult RunMclAggregation(
    std::span<const AggregateBlock> aggregates,
    const MclAggregationParams& params = {});

/// §6.5: validates clusters by reprobing sampled member-/24 pairs with the
/// exhaustive strategy.  Fills identical_pair_ratio and
/// validated_homogeneous on every cluster.  `study_blocks` must be the
/// pipeline's sorted snapshot records (reprobing needs the active-address
/// lists).
///
/// Four passes: sample every cluster's pairs serially, dedupe the sampled
/// /24s into one sorted list, reprobe that list in one chunked pass with
/// a warm reprobe-mode prober per chunk, then score every cluster.
struct ValidationParams {
  std::size_t max_pairs_per_cluster = 64;
  std::uint64_t seed = 99;
  /// The caller's pool for the reprobe pass; null reprobes serially.
  /// Every cluster draws its pair sample from an RNG forked from (seed,
  /// cluster index) and every /24 is reprobed with a seed forked from
  /// (seed, prefix), so the outcome is bit-identical for any thread
  /// count.
  common::ThreadPool* pool = nullptr;
};
void ValidateClusters(const netsim::Internet& internet,
                      std::span<const probing::ZmapBlock> study_blocks,
                      std::span<const AggregateBlock> aggregates,
                      MclAggregationResult& result,
                      const ValidationParams& params = {});

/// Final §6.6 merge: validated clusters collapse into one block each;
/// everything else carries over unchanged.  Returns the final block list
/// in canonical order (SortCanonical).
std::vector<AggregateBlock> MergeValidatedClusters(
    std::span<const AggregateBlock> aggregates,
    const MclAggregationResult& result);

}  // namespace hobbit::cluster
