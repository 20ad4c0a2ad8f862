// bench_fig6 — reproduces Figure 6: "The CDF of the differences between
// the first RTT and the maximum of the rest RTTs for broadband blocks".
//
// Paper: Tele2, OCN and Verizon Wireless blocks show large positive
// differences (~50% of addresses > 0.5s, >= 10% >= 1s) — cellular radio
// wake-up; SingTel and SoftBank sit at ~0 — datacenters.

#include <iostream>

#include "analysis/census.h"
#include "analysis/cellular.h"
#include "analysis/plot.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "common.h"

int main() {
  using namespace hobbit;
  bench::PrintHeader("Figure 6: first-RTT minus max(rest) per block",
                     "paper §5.2");

  const bench::World& world = bench::GetWorld();
  const double xs[] = {-0.5, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.0};

  std::vector<std::pair<std::string, std::vector<double>>> curves;

  // The paper studies the large "Broadband"/mobile blocks of Table 5.
  netsim::RouteMemo memo;
  int printed = 0;
  for (std::size_t i = 0; i < world.final_blocks.size() && printed < 8;
       ++i) {
    const cluster::AggregateBlock& block = world.final_blocks[i];
    const netsim::AsInfo* as =
        analysis::AsOfBlock(world.internet.registry, block);
    if (as == nullptr) continue;
    if (as->type != netsim::OrgType::kBroadbandIsp &&
        as->type != netsim::OrgType::kMobileIsp &&
        as->type != netsim::OrgType::kFixedIsp) {
      continue;
    }
    // Paper: 200 sampled /24s x 20 pings; scaled down here.
    std::vector<double> deltas = analysis::FirstRttDeltas(
        world.internet, memo, block, 60, 20, world.seed + i);
    if (deltas.size() < 40) continue;
    curves.emplace_back(as->organization + " #" + std::to_string(i + 1),
                        deltas);
    analysis::Ecdf ecdf(std::move(deltas));
    std::cout << as->organization << " (rank " << i + 1 << ", "
              << block.member_24s.size() << " x /24)\n";
    analysis::PrintCdfSeries(std::cout, "  CDF(delta seconds)", ecdf, xs);
    std::cout << "  share > 0.5s: " << analysis::Pct(1.0 - ecdf.At(0.5))
              << ", share >= 1s: " << analysis::Pct(1.0 - ecdf.At(1.0 - 1e-9))
              << "\n";
    ++printed;
  }
  std::cout << "\n";
  analysis::PlotOptions plot;
  plot.x_label = "first RTT - max(rest) [s]";
  plot.x_min = -0.5;
  plot.x_max = 2.5;
  analysis::RenderCdfPlot(std::cout, curves, plot);
  std::cout << "\npaper: Tele2/OCN/Verizon ~50% above 0.5s and >=10% at "
               ">=1s (cellular); SingTel/SoftBank/Cox ~0 (datacenter)\n";
  return 0;
}
