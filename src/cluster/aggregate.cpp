#include "cluster/aggregate.h"

#include <algorithm>
#include <map>
#include <utility>

#include "cluster/components.h"
#include "common/parallel.h"
#include "netsim/rng.h"

namespace hobbit::cluster {
namespace {

double Similarity(const std::vector<netsim::Ipv4Address>& a,
                  const std::vector<netsim::Ipv4Address>& b) {
  // Both sorted; intersection by merge.
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  const std::size_t denom = std::max(a.size(), b.size());
  return denom == 0 ? 0.0 : static_cast<double>(common) / denom;
}

}  // namespace

std::vector<AggregateBlock> AggregateIdentical(
    std::span<const core::BlockResult* const> homogeneous_blocks) {
  // Key aggregates by their exact last-hop set.
  std::map<std::vector<netsim::Ipv4Address>, std::vector<netsim::Prefix>>
      groups;
  for (const core::BlockResult* block : homogeneous_blocks) {
    if (block->last_hop_set.empty()) continue;
    groups[block->last_hop_set].push_back(block->prefix);
  }
  std::vector<AggregateBlock> aggregates;
  aggregates.reserve(groups.size());
  for (auto& [set, members] : groups) {
    AggregateBlock aggregate;
    aggregate.last_hops = set;
    aggregate.member_24s = std::move(members);
    aggregates.push_back(std::move(aggregate));
  }
  SortCanonical(aggregates);
  return aggregates;
}

void SortCanonical(std::vector<AggregateBlock>& blocks) {
  for (AggregateBlock& block : blocks) {
    std::sort(block.member_24s.begin(), block.member_24s.end());
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const AggregateBlock& a, const AggregateBlock& b) {
              if (a.member_24s.size() != b.member_24s.size()) {
                return a.member_24s.size() > b.member_24s.size();
              }
              return a.member_24s.front() < b.member_24s.front();
            });
}

Graph BuildSimilarityGraph(std::span<const AggregateBlock> aggregates,
                           common::ThreadPool* pool) {
  Graph graph;
  graph.vertex_count = static_cast<std::uint32_t>(aggregates.size());
  // Flat inverted index: one (router, vertex) pair per membership,
  // sorted by router then vertex.  A router's bucket is then one
  // contiguous, vertex-ascending run found by binary search.
  std::size_t memberships = 0;
  for (const AggregateBlock& aggregate : aggregates) {
    memberships += aggregate.last_hops.size();
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_router;
  by_router.reserve(memberships);
  for (std::uint32_t v = 0; v < aggregates.size(); ++v) {
    for (netsim::Ipv4Address router : aggregates[v].last_hops) {
      by_router.emplace_back(router.value(), v);
    }
  }
  std::sort(by_router.begin(), by_router.end());
  // Each vertex a emits its edges to higher-numbered neighbours.  Shards
  // take contiguous vertex chunks and append into one per-shard edge
  // buffer; chunks ascend with the shard index, so concatenating the
  // shard buffers in shard order yields the same (a, b)-sorted edge list
  // for every thread count.
  common::PerShard<std::vector<Graph::Edge>> edges_by_shard(
      common::ThreadCount(pool));
  common::ForEachChunk(
      pool, aggregates.size(), 1, [&](common::ChunkRange chunk) {
        std::vector<Graph::Edge>& edges = *edges_by_shard[chunk.shard];
        std::vector<std::uint32_t> candidates;
        for (std::size_t a = chunk.begin; a < chunk.end; ++a) {
          candidates.clear();
          for (netsim::Ipv4Address router : aggregates[a].last_hops) {
            const std::uint32_t rv = router.value();
            auto it = std::lower_bound(
                by_router.begin(), by_router.end(),
                std::pair<std::uint32_t, std::uint32_t>(rv, 0));
            for (; it != by_router.end() && it->first == rv; ++it) {
              if (it->second > a) candidates.push_back(it->second);
            }
          }
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(
              std::unique(candidates.begin(), candidates.end()),
              candidates.end());
          for (std::uint32_t b : candidates) {
            double w = Similarity(aggregates[a].last_hops,
                                  aggregates[b].last_hops);
            if (w > 0.0) {
              edges.push_back({static_cast<std::uint32_t>(a), b, w});
            }
          }
        }
      });
  std::size_t total = 0;
  for (const auto& edges : edges_by_shard) total += edges->size();
  graph.edges.reserve(total);
  for (const auto& edges : edges_by_shard) {
    graph.edges.insert(graph.edges.end(), edges->begin(), edges->end());
  }
  return graph;
}

namespace {

/// Pair-weighted similarity distribution test (§6.6 rule).
bool ClusterMatchesRule(std::span<const AggregateBlock> aggregates,
                        const std::vector<std::uint32_t>& members,
                        const RuleParams& rule) {
  // Count /24-level pairs at-or-above the similarity bar.  Pairs inside
  // one aggregate have similarity 1 by construction.  A single aggregate
  // pair overlapping below the floor disqualifies the whole cluster.
  long double high = 0, total = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto ni = static_cast<long double>(
        aggregates[members[i]].member_24s.size());
    high += ni * (ni - 1) / 2;
    total += ni * (ni - 1) / 2;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      const auto nj = static_cast<long double>(
          aggregates[members[j]].member_24s.size());
      double s = Similarity(aggregates[members[i]].last_hops,
                            aggregates[members[j]].last_hops);
      if (s < rule.min_pair_similarity) return false;
      total += ni * nj;
      if (s >= rule.high_similarity) high += ni * nj;
    }
  }
  if (total <= 0) return false;
  return high / total >= rule.min_fraction_high;
}

}  // namespace

MclAggregationResult RunMclAggregation(
    std::span<const AggregateBlock> aggregates,
    const MclAggregationParams& params) {
  MclAggregationResult result;
  // The caller's pool (params.mcl.pool) serves edge generation, the
  // inflation sweep and every per-component MCL run.
  Graph graph = BuildSimilarityGraph(aggregates, params.mcl.pool);

  // §6.4 parameter sweep on the whole (disconnected) graph.
  SweepOutcome sweep =
      SweepInflation(graph, params.inflation_candidates, params.mcl);
  result.chosen_inflation = sweep.best_inflation;

  // Per-component MCL (§6.3 preprocessing step 2).
  std::vector<Component> components = SplitComponents(graph);
  result.component_count = components.size();
  MclParams mcl_params = params.mcl;
  mcl_params.inflation = result.chosen_inflation;

  for (const Component& component : components) {
    if (component.vertices.size() == 1) {
      result.unclustered.push_back(component.vertices.front());
      continue;
    }
    MclResult mcl = RunMcl(component.graph, mcl_params);
    for (const auto& local_cluster : mcl.clusters) {
      if (local_cluster.size() < 2) {
        for (std::uint32_t v : local_cluster) {
          result.unclustered.push_back(component.vertices[v]);
        }
        continue;
      }
      ClusterInfo info;
      info.aggregate_ids.reserve(local_cluster.size());
      for (std::uint32_t v : local_cluster) {
        info.aggregate_ids.push_back(component.vertices[v]);
      }
      std::sort(info.aggregate_ids.begin(), info.aggregate_ids.end());
      info.matches_rule =
          ClusterMatchesRule(aggregates, info.aggregate_ids, params.rule);
      result.clusters.push_back(std::move(info));
    }
  }
  return result;
}

void ValidateClusters(const netsim::Internet& internet,
                      std::span<const probing::ZmapBlock> study_blocks,
                      std::span<const AggregateBlock> aggregates,
                      MclAggregationResult& result,
                      const ValidationParams& params) {
  // A sampled pair's two /24s as indices into study_blocks; kMissing
  // marks a member the snapshot has no record for (never reprobed).
  constexpr std::size_t kMissing = static_cast<std::size_t>(-1);
  auto find_block = [&](const netsim::Prefix& p) -> std::size_t {
    auto pos = std::lower_bound(
        study_blocks.begin(), study_blocks.end(), p,
        [](const probing::ZmapBlock& b, const netsim::Prefix& q) {
          return b.prefix < q;
        });
    if (pos == study_blocks.end() || !(pos->prefix == p)) return kMissing;
    return static_cast<std::size_t>(pos - study_blocks.begin());
  };

  // Pass 1 (serial, cheap): draw every cluster's pair sample from its own
  // RNG forked from (seed, cluster index).  A sampled cluster's pairs are
  // pairs[begin, end).
  struct ClusterSample {
    std::size_t cluster;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<ClusterSample> samples;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<const netsim::Prefix*> members;
  for (std::size_t c = 0; c < result.clusters.size(); ++c) {
    ClusterInfo& cluster = result.clusters[c];
    members.clear();
    for (std::uint32_t id : cluster.aggregate_ids) {
      for (const netsim::Prefix& p : aggregates[id].member_24s) {
        members.push_back(&p);
      }
    }
    if (members.size() < 2) {
      cluster.identical_pair_ratio = 1.0;
      cluster.validated_homogeneous = true;
      continue;
    }
    netsim::Rng rng(netsim::StableHash({params.seed, c, 0x7A11DA7EULL}));
    const std::size_t total_pairs = members.size() * (members.size() - 1) / 2;
    const std::size_t want =
        std::min(params.max_pairs_per_cluster, total_pairs);
    const std::size_t begin = pairs.size();
    for (std::size_t k = 0; k < want; ++k) {
      std::size_t i = rng.NextBelow(members.size());
      std::size_t j = rng.NextBelow(members.size() - 1);
      if (j >= i) ++j;
      pairs.emplace_back(find_block(*members[i]), find_block(*members[j]));
    }
    samples.push_back({c, begin, pairs.size()});
  }

  // Pass 2: the distinct sampled /24s, ascending (= prefix order).
  std::vector<std::size_t> to_probe;
  to_probe.reserve(2 * pairs.size());
  for (const auto& [a, b] : pairs) {
    if (a != kMissing) to_probe.push_back(a);
    if (b != kMissing) to_probe.push_back(b);
  }
  std::sort(to_probe.begin(), to_probe.end());
  to_probe.erase(std::unique(to_probe.begin(), to_probe.end()),
                 to_probe.end());

  // Pass 3: reprobe them all in one chunked pass, one warm reprobe-mode
  // prober per chunk.  Each /24's reprobe is a pure function of its own
  // StableHash(seed, prefix) seed, so neither the chunking nor what a
  // prober probed before can change a reprobed set.
  std::vector<std::vector<netsim::Ipv4Address>> reprobed(to_probe.size());
  common::ForEachChunk(params.pool, to_probe.size(), 1,
                       [&](common::ChunkRange chunk) {
    core::BlockProber prober = core::MakeReprobeProber(internet);
    for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
      const probing::ZmapBlock& block = study_blocks[to_probe[k]];
      reprobed[k] = core::ReprobeBlock(
                        prober, block,
                        netsim::StableHash(
                            {params.seed, block.prefix.base().value()}))
                        .last_hop_set;
    }
  });
  auto reprobed_set = [&](std::size_t study_index)
      -> const std::vector<netsim::Ipv4Address>& {
    return reprobed[static_cast<std::size_t>(
        std::lower_bound(to_probe.begin(), to_probe.end(), study_index) -
        to_probe.begin())];
  };

  // Pass 4: score every sampled cluster from the reprobed sets.
  for (const ClusterSample& sample : samples) {
    std::size_t identical = 0;
    std::size_t compared = 0;
    for (std::size_t k = sample.begin; k < sample.end; ++k) {
      const auto [a, b] = pairs[k];
      if (a == kMissing || b == kMissing) continue;
      const auto& set_a = reprobed_set(a);
      ++compared;
      if (set_a == reprobed_set(b) && !set_a.empty()) ++identical;
    }
    ClusterInfo& cluster = result.clusters[sample.cluster];
    cluster.identical_pair_ratio =
        compared == 0 ? 0.0
                      : static_cast<double>(identical) / compared;
    cluster.validated_homogeneous =
        compared > 0 && identical == compared;
  }
}

std::vector<AggregateBlock> MergeValidatedClusters(
    std::span<const AggregateBlock> aggregates,
    const MclAggregationResult& result) {
  std::vector<bool> consumed(aggregates.size(), false);
  std::vector<AggregateBlock> merged;

  for (const ClusterInfo& cluster : result.clusters) {
    if (!cluster.validated_homogeneous) continue;
    AggregateBlock block;
    for (std::uint32_t id : cluster.aggregate_ids) {
      consumed[id] = true;
      const AggregateBlock& a = aggregates[id];
      block.member_24s.insert(block.member_24s.end(), a.member_24s.begin(),
                              a.member_24s.end());
      for (netsim::Ipv4Address r : a.last_hops) {
        auto pos = std::lower_bound(block.last_hops.begin(),
                                    block.last_hops.end(), r);
        if (pos == block.last_hops.end() || *pos != r) {
          block.last_hops.insert(pos, r);
        }
      }
    }
    merged.push_back(std::move(block));
  }
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    if (!consumed[i]) merged.push_back(aggregates[i]);
  }
  SortCanonical(merged);
  return merged;
}

}  // namespace hobbit::cluster
