#include "probing/zmap.h"

#include <algorithm>
#include <iterator>

namespace hobbit::probing {
namespace {

// Target /24s per chunk: a /24 costs ~256 hash draws, so a few dozen keep
// the dispatch negligible while small scans still run inline.
constexpr std::size_t kScanGrain = 64;

}  // namespace

ZmapSnapshot RunZmapScan(const netsim::Internet& internet,
                         std::span<const netsim::Prefix> target_24s,
                         const netsim::Simulator* simulator,
                         common::ThreadPool* pool) {
  if (simulator == nullptr) simulator = internet.simulator.get();
  const netsim::Topology& topology = internet.topology;
  const netsim::HostModel& hosts = simulator->host_model();

  // One slot per target, filled by disjoint contiguous chunks, then the
  // empty /24s are squeezed out in order: the chunks ascend, so this is
  // the chunks' non-empty blocks concatenated in chunk order.
  ZmapSnapshot snapshot;
  snapshot.blocks.resize(target_24s.size());
  common::ForEachChunk(
      pool, target_24s.size(), kScanGrain, [&](common::ChunkRange chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const netsim::Prefix& slash24 = target_24s[i];
          ZmapBlock& block = snapshot.blocks[i];
          block.prefix = slash24;
          // Subnets may subdivide the /24; resolve per sub-covering
          // prefix to avoid 256 full lookups.
          const std::uint32_t last = slash24.Last().value();
          std::uint32_t cursor = slash24.base().value();
          while (true) {
            netsim::SubnetId id =
                topology.FindSubnet(netsim::Ipv4Address(cursor));
            if (id == netsim::kNoSubnet) break;  // unallocated tail
            const netsim::Subnet& subnet = topology.subnet(id);
            const std::uint32_t stop =
                std::min(subnet.prefix.Last().value(), last);
            for (std::uint32_t a = cursor; a <= stop; ++a) {
              if (hosts.ActiveInSnapshot(netsim::Ipv4Address(a), subnet)) {
                block.SetActive(static_cast<std::uint8_t>(a & 0xFF));
              }
            }
            if (stop == last) break;
            cursor = stop + 1;
          }
        }
      });
  std::erase_if(snapshot.blocks,
                [](const ZmapBlock& block) { return block.empty(); });
  return snapshot;
}

std::vector<ZmapBlock> SelectStudyBlocks(const ZmapSnapshot& snapshot) {
  std::vector<ZmapBlock> out;
  std::copy_if(snapshot.blocks.begin(), snapshot.blocks.end(),
               std::back_inserter(out), MeetsSlash26Criterion);
  return out;
}

}  // namespace hobbit::probing
