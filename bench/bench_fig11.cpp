// bench_fig11 — reproduces Figure 11: "The ratio of the links discovered
// by two different approaches: select addresses from 1) each Hobbit block
// and 2) each /24".
//
// Paper: choosing traceroute destinations per Hobbit block always
// discovers more links than per /24 at equal probing budget; per-dest
// load balancing means even ~100 destinations per /24 are needed to
// approach ratio 1.

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "analysis/plot.h"
#include "analysis/report.h"
#include "analysis/topo_discovery.h"
#include "common.h"

int main() {
  using namespace hobbit;
  bench::PrintHeader("Figure 11: link discovery, Hobbit blocks vs /24s",
                     "paper §7.1");

  const bench::World& world = bench::GetWorld();
  netsim::Rng rng(world.seed + 0xF16ULL);

  // Sample homogeneous /24s (the paper uses its §3.1 full-traceroute
  // dataset of homogeneous blocks).
  std::vector<const core::BlockResult*> sample = world.homogeneous;
  const std::size_t want = std::min<std::size_t>(sample.size(), 600);
  for (std::size_t i = 0; i < want; ++i) {
    std::size_t j = i + rng.NextBelow(sample.size() - i);
    std::swap(sample[i], sample[j]);
  }
  sample.resize(want);

  // All snapshot-active destinations of the sampled blocks.
  std::map<netsim::Prefix, std::size_t> sampled_24s;
  std::vector<netsim::Ipv4Address> destinations;
  std::vector<netsim::Prefix> destination_24;
  auto find_snapshot = [&](const netsim::Prefix& p)
      -> const probing::ZmapBlock* {
    auto pos = std::lower_bound(
        world.pipeline.study_blocks.begin(),
        world.pipeline.study_blocks.end(), p,
        [](const probing::ZmapBlock& b, const netsim::Prefix& q) {
          return b.prefix < q;
        });
    return pos != world.pipeline.study_blocks.end() && pos->prefix == p
               ? &*pos
               : nullptr;
  };
  for (const core::BlockResult* block : sample) {
    const probing::ZmapBlock* snapshot = find_snapshot(block->prefix);
    if (snapshot == nullptr) continue;
    sampled_24s.emplace(block->prefix, sampled_24s.size());
    for (std::uint8_t octet : snapshot->ActiveOctets()) {
      destinations.push_back(
          netsim::Ipv4Address(block->prefix.base().value() | octet));
      destination_24.push_back(block->prefix);
    }
  }

  netsim::RouteMemo memo;
  analysis::TracerouteCorpus corpus = analysis::CollectCorpus(
      *world.internet.simulator, memo, destinations);
  std::cout << "corpus: " << corpus.entries.size() << " traceroutes, "
            << corpus.total_links << " distinct links, "
            << sampled_24s.size() << " /24s\n\n";

  // Strata 1: per /24.
  std::map<netsim::Prefix, std::vector<std::uint32_t>> by_24;
  for (std::uint32_t i = 0; i < corpus.entries.size(); ++i) {
    by_24[netsim::Prefix::Slash24Of(corpus.entries[i].destination)]
        .push_back(i);
  }
  std::vector<std::vector<std::uint32_t>> strata_24;
  for (auto& [prefix, indices] : by_24) {
    strata_24.push_back(std::move(indices));
  }

  // Strata 2: per final Hobbit block (restricted to the sampled /24s).
  std::map<const cluster::AggregateBlock*, std::vector<std::uint32_t>>
      by_block;
  std::map<netsim::Prefix, const cluster::AggregateBlock*> block_of;
  for (const cluster::AggregateBlock& block : world.final_blocks) {
    for (const netsim::Prefix& p : block.member_24s) block_of[p] = &block;
  }
  for (std::uint32_t i = 0; i < corpus.entries.size(); ++i) {
    netsim::Prefix p =
        netsim::Prefix::Slash24Of(corpus.entries[i].destination);
    auto pos = block_of.find(p);
    if (pos != block_of.end()) {
      by_block[pos->second].push_back(i);
    } else {
      by_block[nullptr].push_back(i);  // not aggregated: its own stratum
    }
  }
  std::vector<std::vector<std::uint32_t>> strata_block;
  for (auto& [block, indices] : by_block) {
    strata_block.push_back(std::move(indices));
  }

  const std::size_t total_24s = strata_24.size();
  auto hobbit_series = analysis::DiscoverySeries(
      corpus, strata_block, total_24s, netsim::Rng(world.seed + 1));
  auto per24_series = analysis::DiscoverySeries(
      corpus, strata_24, total_24s, netsim::Rng(world.seed + 2));

  auto ratio_at = [](const std::vector<analysis::SeriesPoint>& series,
                     double x) {
    double best = 0;
    for (const auto& point : series) {
      if (point.avg_selected_per_24 <= x) best = point.link_ratio;
    }
    return best;
  };
  analysis::TextTable table({"avg selected per /24", "Hobbit blocks",
                             "per /24", "advantage"});
  for (double x : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    double h = ratio_at(hobbit_series, x);
    double p = ratio_at(per24_series, x);
    table.AddRow({analysis::Fmt(x, 1), analysis::Fmt(h, 3),
                  analysis::Fmt(p, 3),
                  (h >= p ? "+" : "") + analysis::Fmt(h - p, 3)});
  }
  table.Print(std::cout);
  std::cout << "\n";
  analysis::PlotSeries hobbit_plot{"Hobbit blocks", '*', {}};
  for (const auto& point : hobbit_series) {
    hobbit_plot.points.emplace_back(point.avg_selected_per_24,
                                    point.link_ratio);
  }
  analysis::PlotSeries per24_plot{"per /24", 'o', {}};
  for (const auto& point : per24_series) {
    per24_plot.points.emplace_back(point.avg_selected_per_24,
                                   point.link_ratio);
  }
  analysis::PlotOptions plot;
  plot.x_label = "avg selected destinations per /24";
  plot.y_label = "discovered links ratio";
  plot.x_min = 0;
  plot.x_max = 32;
  plot.y_min = 0;
  plot.y_max = 1;
  analysis::RenderPlot(std::cout, {hobbit_plot, per24_plot}, plot);
  std::cout << "\npaper: the Hobbit-block curve dominates the per-/24 "
               "curve at every budget\n";
  return 0;
}
