// bench_table2 — reproduces Table 2: "The distribution of homogeneous
// sub-blocks within heterogeneous /24 blocks".
//
// The paper applies the §4.2 aligned-disjoint criteria to the "different
// but hierarchical" class, finds 17,387 very-likely-heterogeneous /24s,
// and reports their sub-block compositions:
//   {/25,/25} 50.48%, {/25,/26,/26} 20.65%, {/26 x4} 15.79%,
//   {/25,/26,/27,/27} 5.92%, {/26,/26,/26,/27,/27} 4.63%, ...

#include <iostream>
#include <map>
#include <sstream>

#include "analysis/report.h"
#include "common.h"
#include "hobbit/hierarchy.h"

namespace {

std::string CompositionLabel(const std::vector<int>& lengths) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (i > 0) os << ", ";
    os << "/" << lengths[i];
  }
  os << "}";
  return os.str();
}

}  // namespace

int main() {
  using namespace hobbit;
  bench::PrintHeader("Table 2: sub-block composition of heterogeneous /24s",
                     "paper §4.2");

  const bench::World& world = bench::GetWorld();
  std::map<std::string, std::size_t> compositions;
  std::size_t hierarchical = 0;
  std::size_t aligned_disjoint = 0;
  core::BlockProber prober = core::MakeReprobeProber(world.internet);
  for (std::size_t i = 0; i < world.pipeline.results.size(); ++i) {
    const core::BlockResult& result = world.pipeline.results[i];
    if (result.classification !=
        core::Classification::kDifferentButHierarchical) {
      continue;
    }
    ++hierarchical;
    auto groups = core::GroupByLastHop(result.observations);
    if (!core::IsAlignedDisjoint(groups)) continue;
    ++aligned_disjoint;
    // The adaptive prober may have stopped with one or two addresses per
    // group, under-spanning the true sub-blocks; reprobe the flagged /24
    // exhaustively before reading its composition (the paper probed these
    // at the 95% level, i.e. with many addresses per group).
    core::BlockResult reprobed =
        core::ReprobeBlock(prober, world.pipeline.study_blocks[i],
                           world.seed + 0x7AB2ULL + i);
    auto full_groups = core::GroupByLastHop(reprobed.observations);
    if (full_groups.size() < 2) full_groups = groups;
    ++compositions[CompositionLabel(
        core::SubBlockComposition(full_groups))];
  }

  std::cout << "different-but-hierarchical /24s: " << hierarchical << "\n"
            << "very likely heterogeneous (aligned-disjoint): "
            << aligned_disjoint << "   (paper: 17,387 of 198,292)\n\n";

  std::vector<std::pair<std::size_t, std::string>> rows;
  for (const auto& [label, count] : compositions) {
    rows.emplace_back(count, label);
  }
  std::sort(rows.rbegin(), rows.rend());

  analysis::TextTable table({"Composition", "count", "ratio"});
  for (const auto& [count, label] : rows) {
    table.AddRow({label, std::to_string(count),
                  analysis::Pct(static_cast<double>(count) /
                                static_cast<double>(aligned_disjoint))});
  }
  table.Print(std::cout);
  std::cout << "\npaper: {/25,/25} 50.48%  {/25,/26,/26} 20.65%  "
               "{/26,/26,/26,/26} 15.79%  {/25,/26,/27,/27} 5.92%  ...\n";
  return 0;
}
