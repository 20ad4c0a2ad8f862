// topo_discovery.h — the topology-discovery efficiency experiment
// (paper §7.1, Figure 11).
//
// Given traceroutes toward every active address of a set of homogeneous
// /24s, compare two destination-selection strategies: k destinations from
// every /24 versus k destinations from every *Hobbit block*.  The metric
// is the fraction of all distinct IP-level links the selected traceroutes
// cover, as a function of the average number of selected destinations per
// /24.  Hobbit wins when its blocks are larger than /24s: fewer
// destinations cover the same links.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netsim/ipv4.h"
#include "netsim/rng.h"
#include "netsim/simulator.h"

namespace hobbit::analysis {

/// Traceroute corpus entry: one destination and the links of its route.
/// Links are packed (hop_i, hop_i+1) address pairs; wildcard-adjacent
/// links are omitted.
struct CorpusEntry {
  netsim::Ipv4Address destination;
  std::vector<std::uint64_t> links;
};

struct TracerouteCorpus {
  std::vector<CorpusEntry> entries;
  /// Total distinct links across all entries.
  std::size_t total_links = 0;
};

/// Collects one Paris traceroute per destination (flow identifier varied
/// per destination, so per-flow path diversity appears across the corpus
/// as it did in the paper's MDA dataset), through the caller's `memo`.
TracerouteCorpus CollectCorpus(
    const netsim::Simulator& simulator, netsim::RouteMemo& memo,
    std::span<const netsim::Ipv4Address> destinations);

/// One point of a discovery curve.
struct SeriesPoint {
  double avg_selected_per_24 = 0.0;
  double link_ratio = 0.0;
};

/// Computes the discovered-links curve for a stratified selection: per
/// round k, pick min(k, |stratum|) random corpus entries from each
/// stratum and measure link coverage.  `strata` holds indices into
/// `corpus.entries`; `total_24s` normalises the x axis.  The curve stops
/// once coverage exceeds `stop_ratio`.
std::vector<SeriesPoint> DiscoverySeries(
    const TracerouteCorpus& corpus,
    std::span<const std::vector<std::uint32_t>> strata,
    std::size_t total_24s, netsim::Rng rng, double stop_ratio = 0.999,
    int max_rounds = 256);

}  // namespace hobbit::analysis
