// bench_implication_edns — the paper's EDNS-client-subnet motivation,
// quantified: "The EDNS-Client-Subnet extension may fail to find the
// single best server for addresses within a /24 block if some addresses
// are distant from each other" (§1).
//
// A CDN maps client aggregates to front-end servers based on one measured
// representative per aggregate.  We compare mapping granularities against
// the per-client optimum:
//   * per /16           — coarse, the pre-ECS practice;
//   * per /24           — what ECS prescribes;
//   * per Hobbit block  — same accuracy as /24 with far fewer map entries;
//   * /24 restricted to split blocks — where the /24 unit actually hurts.

#include <iostream>
#include <map>

#include "analysis/edns.h"
#include "analysis/report.h"
#include "common.h"
#include "hobbit/hierarchy.h"

int main() {
  using namespace hobbit;
  bench::PrintHeader("EDNS mapping penalty by aggregation granularity",
                     "paper §1 (EDNS motivation)");

  const bench::World& world = bench::GetWorld();
  netsim::Rng rng(world.seed + 0xED25ULL);
  auto front_ends = analysis::PlaceFrontEnds(12, rng.Fork(1));

  // Clients: snapshot-active addresses of a sample of study /24s.
  std::vector<std::vector<netsim::Ipv4Address>> per_24;
  std::map<netsim::Prefix, std::vector<netsim::Ipv4Address>> by_16;
  const std::size_t kMax24s = 3000;
  for (std::size_t i = 0; i < world.pipeline.study_blocks.size() &&
                          per_24.size() < kMax24s;
       ++i) {
    const probing::ZmapBlock& snapshot = world.pipeline.study_blocks[i];
    std::vector<netsim::Ipv4Address> clients;
    for (std::uint8_t octet : snapshot.ActiveOctets()) {
      clients.push_back(
          netsim::Ipv4Address(snapshot.prefix.base().value() | octet));
    }
    by_16[netsim::Prefix::Of(snapshot.prefix.base(), 16)].insert(
        by_16[netsim::Prefix::Of(snapshot.prefix.base(), 16)].end(),
        clients.begin(), clients.end());
    per_24.push_back(std::move(clients));
  }
  std::vector<std::vector<netsim::Ipv4Address>> per_16;
  for (auto& [prefix, clients] : by_16) per_16.push_back(std::move(clients));

  // Hobbit blocks restricted to the sampled /24s.  Keys: block index for
  // aggregated /24s, -(sample index + 1) for unaggregated ones (their own
  // unit either way).
  std::map<long, std::vector<netsim::Ipv4Address>> by_block;
  {
    std::map<netsim::Prefix, long> block_of;
    for (std::size_t b = 0; b < world.final_blocks.size(); ++b) {
      for (const auto& p : world.final_blocks[b].member_24s) {
        block_of[p] = static_cast<long>(b);
      }
    }
    for (std::size_t index = 0; index < per_24.size(); ++index) {
      const auto& clients = per_24[index];
      if (clients.empty()) continue;
      netsim::Prefix p = netsim::Prefix::Slash24Of(clients.front());
      auto pos = block_of.find(p);
      long key = pos != block_of.end() ? pos->second
                                       : -static_cast<long>(index) - 1;
      auto& bucket = by_block[key];
      bucket.insert(bucket.end(), clients.begin(), clients.end());
    }
  }
  std::vector<std::vector<netsim::Ipv4Address>> per_block;
  for (auto& [key, clients] : by_block) per_block.push_back(std::move(clients));

  // Split /24s only (ground truth): the blind spot.
  std::vector<std::vector<netsim::Ipv4Address>> split_24s;
  for (const auto& clients : per_24) {
    if (clients.empty()) continue;
    const netsim::TruthRecord* truth = world.internet.TruthOf(
        netsim::Prefix::Slash24Of(clients.front()));
    if (truth != nullptr && truth->heterogeneous) {
      split_24s.push_back(clients);
    }
  }

  analysis::TextTable table({"mapping unit", "units", "clients",
                             "mean penalty (ms)", "p95 (ms)",
                             "misdirected"});
  auto add_row = [&](const char* name,
                     std::span<const std::vector<netsim::Ipv4Address>>
                         strata,
                     std::uint64_t salt) {
    analysis::MappingOutcome outcome = analysis::EvaluateMapping(
        world.internet, strata, front_ends, rng.Fork(salt));
    table.AddRow({name, std::to_string(strata.size()),
                  std::to_string(outcome.clients),
                  analysis::Fmt(outcome.mean_penalty_ms),
                  analysis::Fmt(outcome.p95_penalty_ms),
                  analysis::Pct(outcome.misdirected_share)});
  };
  add_row("/16", per_16, 11);
  add_row("/24 (ECS)", per_24, 12);
  add_row("Hobbit block", per_block, 13);
  add_row("/24, split blocks only", split_24s, 14);
  table.Print(std::cout);

  std::cout << "\nreading: /24 mapping is near-optimal for homogeneous "
               "space and Hobbit blocks match it with ~"
            << analysis::Fmt(static_cast<double>(per_24.size()) /
                                 std::max<std::size_t>(1, per_block.size()),
                             1)
            << "x fewer map entries; the residual /24 penalty "
               "concentrates in the split /24s (the paper's point), "
               "while /16 mapping pays everywhere\n";
  return 0;
}
