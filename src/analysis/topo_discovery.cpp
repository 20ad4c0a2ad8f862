#include "analysis/topo_discovery.h"

#include <algorithm>
#include <unordered_set>

#include "probing/traceroute.h"

namespace hobbit::analysis {

TracerouteCorpus CollectCorpus(
    const netsim::Simulator& simulator, netsim::RouteMemo& memo,
    std::span<const netsim::Ipv4Address> destinations) {
  TracerouteCorpus corpus;
  corpus.entries.reserve(destinations.size());
  std::uint64_t serial = 1;
  std::unordered_set<std::uint64_t> all_links;
  for (netsim::Ipv4Address destination : destinations) {
    // Vary the flow identifier per destination so per-flow diversity
    // shows up across the corpus.
    auto flow = static_cast<std::uint16_t>(
        netsim::StableHash({destination.value(), 0xF10ULL}) & 0xFFFF);
    probing::Route route = probing::ParisTraceroute(simulator, memo,
                                                    destination, flow, serial);
    if (!route.reached_destination) continue;
    CorpusEntry entry;
    entry.destination = destination;
    for (std::size_t i = 1; i < route.hops.size(); ++i) {
      const probing::Hop& a = route.hops[i - 1];
      const probing::Hop& b = route.hops[i];
      if (!a.responsive || !b.responsive) continue;
      std::uint64_t link = (std::uint64_t{a.address.value()} << 32) |
                           b.address.value();
      entry.links.push_back(link);
      all_links.insert(link);
    }
    // Router-router links only: destination attachment edges are unique
    // per address by construction, so counting them would reward nothing
    // but raw probe volume.
    corpus.entries.push_back(std::move(entry));
  }
  corpus.total_links = all_links.size();
  return corpus;
}

std::vector<SeriesPoint> DiscoverySeries(
    const TracerouteCorpus& corpus,
    std::span<const std::vector<std::uint32_t>> strata,
    std::size_t total_24s, netsim::Rng rng, double stop_ratio,
    int max_rounds) {
  std::vector<SeriesPoint> series;
  if (corpus.total_links == 0 || total_24s == 0) return series;

  // Shuffle each stratum once; round k takes its first k entries, so the
  // selection is cumulative across rounds (as repeated sampling in the
  // paper's "repeat to select more destinations" loop).
  std::vector<std::vector<std::uint32_t>> shuffled(strata.begin(),
                                                   strata.end());
  for (auto& s : shuffled) {
    for (std::size_t i = s.size(); i > 1; --i) {
      std::swap(s[i - 1], s[rng.NextBelow(i)]);
    }
  }

  std::unordered_set<std::uint64_t> covered;
  std::size_t selected = 0;
  for (int k = 1; k <= max_rounds; ++k) {
    bool any_new_selection = false;
    for (const auto& s : shuffled) {
      if (s.size() < static_cast<std::size_t>(k)) continue;
      any_new_selection = true;
      const CorpusEntry& entry =
          corpus.entries[s[static_cast<std::size_t>(k) - 1]];
      ++selected;
      for (std::uint64_t link : entry.links) covered.insert(link);
    }
    if (!any_new_selection) break;
    SeriesPoint point;
    point.avg_selected_per_24 =
        static_cast<double>(selected) / static_cast<double>(total_24s);
    point.link_ratio = static_cast<double>(covered.size()) /
                       static_cast<double>(corpus.total_links);
    series.push_back(point);
    if (point.link_ratio >= stop_ratio) break;
  }
  return series;
}

}  // namespace hobbit::analysis
