// walk_oracle.h — the FIB-resolved forward walk (every hop looked up in
// the topology and picked by Simulator::PickNextHop), the oracle for the
// RouteMemo hop-row walk behind Simulator::Send and ResolvePath.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/ipv4.h"
#include "netsim/simulator.h"
#include "netsim/topology.h"

namespace hobbit::test {

/// The forward router path of a header, ending with the last-hop router;
/// empty when the destination is unroutable, a dead end or a loop.
inline std::vector<netsim::RouterId> OracleWalk(
    const netsim::Simulator& simulator, netsim::Ipv4Address destination,
    std::uint16_t flow_id, std::uint64_t serial) {
  const netsim::Topology& topology = simulator.topology();
  std::vector<netsim::RouterId> path;
  netsim::SubnetId subnet_id = topology.FindSubnet(destination);
  if (subnet_id == netsim::kNoSubnet) return path;
  const auto& gateways = topology.subnet(subnet_id).gateways;
  netsim::RouterId current = simulator.source_router();
  for (int hop = 1; hop <= simulator.max_hops(); ++hop) {
    path.push_back(current);
    for (netsim::RouterId gw : gateways) {
      if (gw == current) return path;
    }
    const netsim::FibEntry* entry =
        topology.router(current).fib.LookupEntry(destination);
    if (entry == nullptr || entry->group.next_hops.empty()) break;
    current = simulator.PickNextHop(current, entry->group, destination,
                                    flow_id, serial);
  }
  path.clear();
  return path;  // unroutable, a dead end, or a forwarding loop
}

/// The oracle's last-hop router for a header, or kNoRouter.
inline netsim::RouterId OracleLastHop(const netsim::Simulator& simulator,
                                      netsim::Ipv4Address destination,
                                      std::uint16_t flow_id) {
  std::vector<netsim::RouterId> path =
      OracleWalk(simulator, destination, flow_id, 0);
  return path.empty() ? netsim::kNoRouter : path.back();
}

}  // namespace hobbit::test
