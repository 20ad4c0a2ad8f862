// bench_implication_outage — the paper's FIRST motivation, quantified:
// "Trinocular may fail to detect outages if a few addresses within a /24
// block have an outage while others are normally up" (§1).
//
// Experiment: inject outages into the synthetic Internet and run a
// Trinocular-style adaptive detector with two watch granularities:
//   (a) the conventional /24 unit;
//   (b) the sub-block units Hobbit's last-hop groups reveal.
// Whole-/24 outages are caught either way; partial outages — one customer
// sub-block of a split /24 failing — are invisible at /24 granularity.

#include <algorithm>
#include <iostream>

#include "analysis/outage_detection.h"
#include "analysis/report.h"
#include "common.h"
#include "hobbit/hierarchy.h"
#include "netsim/outage.h"

int main() {
  using namespace hobbit;
  bench::PrintHeader("Outage detection: /24 unit vs Hobbit sub-blocks",
                     "paper §1 (Trinocular motivation)");

  const bench::World& world = bench::GetWorld();
  netsim::Simulator& simulator = *world.internet.simulator;
  netsim::Rng rng(world.seed + 0x0D7ULL);

  // Gather split /24s (aligned-disjoint) with their sub-block groups.
  struct SplitCase {
    netsim::Prefix slash24;
    std::vector<core::AddressGroup> groups;
    /// Each group's members, sorted: the addresses whose last-hop set
    /// holds the group's router.
    std::vector<std::vector<netsim::Ipv4Address>> members;
    std::vector<netsim::Ipv4Address> all_actives;
  };
  std::vector<SplitCase> cases;
  core::BlockProber prober = core::MakeReprobeProber(world.internet);
  for (std::size_t i = 0;
       i < world.pipeline.results.size() && cases.size() < 60; ++i) {
    const core::BlockResult& r = world.pipeline.results[i];
    if (r.classification !=
        core::Classification::kDifferentButHierarchical) {
      continue;
    }
    core::BlockResult full = core::ReprobeBlock(
        prober, world.pipeline.study_blocks[i], world.seed + i);
    auto groups = core::GroupByLastHop(full.observations);
    if (!core::IsAlignedDisjoint(groups)) continue;
    SplitCase c;
    c.slash24 = r.prefix;
    for (const core::AddressGroup& group : groups) {
      std::vector<netsim::Ipv4Address>& members = c.members.emplace_back();
      for (const auto& obs : full.observations) {
        if (std::find(obs.last_hops.begin(), obs.last_hops.end(),
                      group.router) != obs.last_hops.end()) {
          members.push_back(obs.address);
        }
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
    }
    c.groups = std::move(groups);
    for (const auto& obs : full.observations) {
      c.all_actives.push_back(obs.address);
    }
    cases.push_back(std::move(c));
  }
  std::cout << "split /24s under watch: " << cases.size() << "\n\n";

  analysis::DetectionParams params;
  netsim::RouteMemo memo;  // one for every probe of the loop below
  std::size_t partial_outages = 0;
  std::size_t caught_24 = 0, caught_sub = 0;
  std::size_t false_alarms_24 = 0, false_alarms_sub = 0;
  std::uint64_t probes_24 = 0, probes_sub = 0;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SplitCase& c = cases[i];
    // Baselines for both granularities (no outage installed).
    analysis::WatchedBlock watch_24 =
        analysis::MakeWatchedBlock(simulator, memo, c.all_actives);
    std::vector<analysis::WatchedBlock> watch_subs;
    for (const auto& members : c.members) {
      watch_subs.push_back(
          analysis::MakeWatchedBlock(simulator, memo, members));
    }

    // Sanity: with no outage, neither unit should raise an alarm.
    auto quiet_24 = analysis::DetectOutage(simulator, memo, watch_24, params,
                                           rng.Fork(i));
    false_alarms_24 += quiet_24.verdict == analysis::OutageVerdict::kDown;
    for (std::size_t s = 0; s < watch_subs.size(); ++s) {
      auto quiet = analysis::DetectOutage(simulator, memo, watch_subs[s],
                                          params, rng.Fork(1000 + i * 8 + s));
      false_alarms_sub += quiet.verdict == analysis::OutageVerdict::kDown;
    }

    // Partial outage: the first sub-block (its spanning prefix) goes dark.
    netsim::OutageOverlay overlay;
    overlay.Fail(netsim::SpanningPrefix(c.groups.front().min,
                                        c.groups.front().max));
    simulator.SetOutageOverlay(&overlay);
    ++partial_outages;

    auto during_24 = analysis::DetectOutage(simulator, memo, watch_24, params,
                                            rng.Fork(2000 + i));
    probes_24 += static_cast<std::uint64_t>(during_24.probes_used);
    caught_24 += during_24.verdict == analysis::OutageVerdict::kDown;

    bool sub_caught = false;
    for (std::size_t s = 0; s < watch_subs.size(); ++s) {
      auto during = analysis::DetectOutage(simulator, memo, watch_subs[s],
                                           params, rng.Fork(3000 + i * 8 + s));
      probes_sub += static_cast<std::uint64_t>(during.probes_used);
      if (s == 0) {
        sub_caught = during.verdict == analysis::OutageVerdict::kDown;
      }
    }
    caught_sub += sub_caught;
    simulator.SetOutageOverlay(nullptr);
  }

  analysis::TextTable table({"watch unit", "partial outages detected",
                             "false alarms", "probes"});
  table.AddRow({"/24 block (Trinocular unit)",
                std::to_string(caught_24) + "/" +
                    std::to_string(partial_outages),
                std::to_string(false_alarms_24), std::to_string(probes_24)});
  table.AddRow({"Hobbit sub-blocks",
                std::to_string(caught_sub) + "/" +
                    std::to_string(partial_outages),
                std::to_string(false_alarms_sub),
                std::to_string(probes_sub)});
  table.Print(std::cout);
  std::cout << "\npaper's claim: at /24 granularity a failed customer "
               "sub-block hides behind its responding neighbors; watching "
               "the Hobbit-revealed sub-blocks exposes it\n";
  return 0;
}
