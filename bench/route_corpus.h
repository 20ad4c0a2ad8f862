// route_corpus.h — shared between bench_metric_choice and bench_fig3:
// a corpus of MDA route *sets* toward every active address of a sample of
// ground-truth-homogeneous /24s (the paper's §3.1 dataset), plus Hobbit's
// procedure over route-level keys, folded through core::IncrementalGrouping.
//
// Every address carries a set of routes (per-flow diversity), hence a set
// of keys under each metric; Hobbit's verdict on a metric is: one group,
// or a key common to all addresses, or a non-hierarchical grouping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
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
  netsim::RouteMemo memo;
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
          *world.internet.simulator, memo, address, serial);
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

  // Each distinct key of the block gets a 32-bit id that stands in for a
  // last-hop router, so the block folds through the prober's grouping.
  std::map<std::string, std::uint32_t> ids;
  core::IncrementalGrouping grouping;
  bool passed = false;
  for (std::uint32_t index : order) {
    const RouteObservation& obs = block.observations[index];
    std::vector<std::string> keys = keys_of(obs);
    if (keys.empty()) continue;
    core::AddressObservation interned;
    interned.address = obs.address;
    for (const std::string& key : keys) {
      const auto id = static_cast<std::uint32_t>(ids.size());
      interned.last_hops.push_back(
          netsim::Ipv4Address(ids.try_emplace(key, id).first->second));
    }
    std::sort(interned.last_hops.begin(), interned.last_hops.end());
    interned.last_hops.erase(
        std::unique(interned.last_hops.begin(), interned.last_hops.end()),
        interned.last_hops.end());
    grouping.Add(interned);
    if (!passed && !grouping.HasCommonLastHop() &&
        grouping.group_count() >= 2) {
      passed = !grouping.Hierarchical();
    }
  }
  const std::size_t cardinality = grouping.group_count();
  if (cardinality == 0) return {0, false};
  return {static_cast<int>(cardinality),
          passed || cardinality == 1 || grouping.HasCommonLastHop()};
}

}  // namespace hobbit::bench
