// route_corpus.h — shared between bench_metric_choice and bench_fig3:
// a corpus of MDA route *sets* toward every active address of a sample of
// ground-truth-homogeneous /24s (the paper's §3.1 dataset), plus the
// grouping/hierarchy machinery for route-level metrics.
//
// Every address carries a set of routes (per-flow diversity), hence a set
// of keys under each metric; Hobbit's verdict on a metric is: one group,
// or a key common to all addresses, or a non-hierarchical grouping.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "hobbit/hierarchy.h"
#include "probing/traceroute.h"

namespace hobbit::bench {

struct RouteObservation {
  netsim::Ipv4Address address;
  std::vector<probing::Route> routes;  // MDA-enumerated, all reached
};

struct BlockRouteSet {
  netsim::Prefix prefix;
  std::vector<RouteObservation> observations;
};

/// Collects MDA route sets for every snapshot-active address of up to
/// `max_blocks` ground-truth homogeneous /24s.
inline std::vector<BlockRouteSet> CollectRouteCorpus(const World& world,
                                                     std::size_t max_blocks) {
  std::vector<BlockRouteSet> corpus;
  std::uint64_t serial = 1;
  for (const probing::ZmapBlock& block : world.pipeline.study_blocks) {
    if (corpus.size() >= max_blocks) break;
    const netsim::TruthRecord* truth = world.internet.TruthOf(block.prefix);
    if (truth == nullptr || truth->heterogeneous) continue;
    BlockRouteSet entry;
    entry.prefix = block.prefix;
    for (std::uint8_t octet : block.ActiveOctets()) {
      netsim::Ipv4Address address(block.prefix.base().value() | octet);
      std::vector<probing::Route> routes = probing::EnumerateRoutes(
          *world.internet.simulator, address, serial);
      if (routes.empty()) continue;
      entry.observations.push_back({address, std::move(routes)});
    }
    if (entry.observations.size() >= 4) corpus.push_back(std::move(entry));
  }
  return corpus;
}

/// Renders a route as a comparison key ("*" for silent hops).
inline std::string RouteKey(const probing::Route& route) {
  std::string key;
  for (const probing::Hop& hop : route.hops) {
    key += hop.responsive ? hop.address.ToString() : "*";
    key.push_back('>');
  }
  return key;
}

/// Keys of one observation under the entire-route metric.
inline std::vector<std::string> RouteKeys(const RouteObservation& obs) {
  std::vector<std::string> keys;
  for (const probing::Route& route : obs.routes) {
    keys.push_back(RouteKey(route));
  }
  return keys;
}

/// Keys under the last-hop metric (unresponsive last hops are skipped).
inline std::vector<std::string> LastHopKeys(const RouteObservation& obs) {
  std::vector<std::string> keys;
  for (const probing::Route& route : obs.routes) {
    const probing::Hop* hop = route.LastHop();
    if (hop != nullptr && hop->responsive) {
      keys.push_back(hop->address.ToString());
    }
  }
  return keys;
}

/// Depth below the deepest hop position at which every route of every
/// observation shows one common responsive router.
inline std::size_t CommonRouterDepth(const BlockRouteSet& block) {
  std::size_t min_len = ~std::size_t{0};
  for (const RouteObservation& obs : block.observations) {
    for (const probing::Route& route : obs.routes) {
      min_len = std::min(min_len, route.hops.size());
    }
  }
  if (min_len == 0 || min_len == ~std::size_t{0}) return 0;
  const probing::Route& reference = block.observations.front().routes.front();
  for (std::size_t depth = min_len; depth-- > 0;) {
    const probing::Hop& first = reference.hops[depth];
    if (!first.responsive) continue;
    bool common = true;
    for (const RouteObservation& obs : block.observations) {
      for (const probing::Route& route : obs.routes) {
        const probing::Hop& hop = route.hops[depth];
        if (!hop.responsive || hop.address != first.address) {
          common = false;
          break;
        }
      }
      if (!common) break;
    }
    if (common) return depth + 1;
  }
  return 0;
}

/// Keys under the sub-path metric: route suffixes below `common_depth`.
inline std::vector<std::string> SubPathKeys(const RouteObservation& obs,
                                            std::size_t common_depth) {
  std::vector<std::string> keys;
  for (const probing::Route& route : obs.routes) {
    std::string key;
    for (std::size_t i = common_depth; i < route.hops.size(); ++i) {
      key += route.hops[i].responsive ? route.hops[i].address.ToString()
                                      : "*";
      key.push_back('>');
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Applies Hobbit's *procedure* to the block under an arbitrary key
/// function mapping an observation to its key set: walk the addresses in
/// a (seeded) random probing order, exactly as the prober would, and
/// declare homogeneity on the first non-hierarchical grouping — or, at
/// exhaustion, when a key is common to every address.  (Non-laminarity is
/// not monotone, so this first-passage semantics differs from evaluating
/// the final grouping once; it is what "applying Hobbit to the partial
/// information" means throughout the paper.)
/// Returns (cardinality = total distinct keys, homogeneous-verdict).
template <typename KeysFn>
std::pair<int, bool> HobbitOnMetric(const BlockRouteSet& block,
                                    KeysFn keys_of) {
  // Seeded shuffle of the probing order.
  std::vector<std::uint32_t> order(block.observations.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  netsim::Rng rng(netsim::StableHash(
      {block.prefix.base().value(), 0x0B5E4EULL}));
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.NextBelow(order.size() - i)]);
  }

  std::map<std::string,
           std::pair<netsim::Ipv4Address, netsim::Ipv4Address>>
      ranges;  // key -> (min addr, max addr)
  std::set<std::string> common;
  bool first = true;
  bool passed = false;
  for (std::uint32_t index : order) {
    const RouteObservation& obs = block.observations[index];
    std::vector<std::string> keys = keys_of(obs);
    if (keys.empty()) continue;
    std::set<std::string> key_set(keys.begin(), keys.end());
    for (const std::string& key : key_set) {
      auto [pos, inserted] =
          ranges.try_emplace(key, obs.address, obs.address);
      if (!inserted) {
        if (obs.address < pos->second.first) pos->second.first = obs.address;
        if (pos->second.second < obs.address) {
          pos->second.second = obs.address;
        }
      }
    }
    if (first) {
      common = key_set;
      first = false;
    } else if (!common.empty()) {
      std::set<std::string> next;
      std::set_intersection(common.begin(), common.end(), key_set.begin(),
                            key_set.end(),
                            std::inserter(next, next.begin()));
      common = std::move(next);
    }
    if (!passed && common.empty() && ranges.size() >= 2) {
      std::vector<core::AddressGroup> groups;
      groups.reserve(ranges.size());
      for (const auto& [key, range] : ranges) {
        core::AddressGroup group;
        group.min = range.first;
        group.max = range.second;
        groups.push_back(std::move(group));
      }
      passed = !core::GroupsAreHierarchical(groups);
    }
  }
  const int cardinality = static_cast<int>(ranges.size());
  if (ranges.empty()) return {0, false};
  return {cardinality,
          passed || ranges.size() == 1 || !common.empty()};
}

}  // namespace hobbit::bench
