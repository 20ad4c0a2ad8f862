// cellular_census.cpp — finding cellular address pools with Hobbit
// (paper §5.2 + §7.2 as one workflow).
//
// Scenario: you want a census of cellular IP space.  Hobbit's aggregated
// blocks reveal large single-location pools; the first-probe RTT
// signature separates cellular pools (radio wake-up) from datacenters;
// the pools' reverse-DNS names generalise into classifiers usable on
// addresses never probed.
//
//   ./cellular_census [scale] [seed]

#include <cstdlib>
#include <iostream>

#include "analysis/cellular.h"
#include "analysis/census.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "cluster/aggregate.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"

int main(int argc, char** argv) {
  using namespace hobbit;

  netsim::InternetConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  config.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 11;
  netsim::Internet internet = netsim::BuildInternet(config);

  std::cout << "== Hobbit measurement ==\n";
  core::PipelineConfig pipeline_config;
  pipeline_config.seed = config.seed;
  pipeline_config.calibration_blocks = 300;
  core::PipelineResult result = core::RunPipeline(internet, pipeline_config);
  auto aggregates =
      cluster::AggregateIdentical(result.HomogeneousBlocks());
  std::cout << aggregates.size() << " homogeneous blocks\n\n";

  std::cout << "== classifying the largest blocks by RTT signature ==\n";
  analysis::TextTable table({"block", "org", "size", "share >0.5s",
                             "verdict"});
  std::vector<const cluster::AggregateBlock*> cellular_blocks;
  netsim::RouteMemo memo;
  for (std::size_t i = 0; i < aggregates.size() && i < 12; ++i) {
    const cluster::AggregateBlock& block = aggregates[i];
    const netsim::AsInfo* as =
        analysis::AsOfBlock(internet.registry, block);
    std::vector<double> deltas = analysis::FirstRttDeltas(
        internet, memo, block, 30, 20, config.seed + i);
    if (deltas.size() < 30) continue;
    analysis::Ecdf ecdf(std::move(deltas));
    const double above = 1.0 - ecdf.At(0.5);
    const bool cellular = above > 0.25;
    if (cellular) cellular_blocks.push_back(&block);
    table.AddRow({std::to_string(i + 1), as ? as->organization : "?",
                  std::to_string(block.member_24s.size()),
                  analysis::Pct(above),
                  cellular ? "cellular" : "fixed/datacenter"});
  }
  table.Print(std::cout);

  std::cout << "\n== extracting reverse-DNS classifiers ==\n";
  std::size_t rules = 0;
  for (const cluster::AggregateBlock* block : cellular_blocks) {
    auto names =
        analysis::CollectRdnsNames(internet, *block, 300, config.seed);
    if (names.size() < 20) continue;
    analysis::PatternExtraction extraction =
        analysis::ExtractDominantPattern(names);
    if (extraction.coverage < 0.9) continue;
    ++rules;
    std::cout << "rule " << rules << ": addresses matching \""
              << extraction.dominant_pattern
              << "\" are cellular (derived from "
              << extraction.names_seen << " names, coverage "
              << analysis::Pct(extraction.coverage) << ")\n";
  }
  if (rules == 0) {
    std::cout << "no high-coverage naming rule found at this scale; try "
                 "a larger one\n";
  }
  std::cout << "\nGround truth check: ";
  std::size_t truly_cellular = 0;
  for (const cluster::AggregateBlock* block : cellular_blocks) {
    truly_cellular += analysis::DominantKind(internet, *block) ==
                      netsim::SubnetKind::kCellular;
  }
  std::cout << truly_cellular << "/" << cellular_blocks.size()
            << " RTT-flagged blocks are cellular in ground truth\n";
  return 0;
}
