// grouping_oracle.h — the batch last-hop regroup (every member kept,
// regrouped from scratch), the oracle for core::IncrementalGrouping.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "hobbit/types.h"

namespace hobbit::test {

/// Sorted unique members of each last-hop router's group, keyed by router.
inline std::map<netsim::Ipv4Address, std::vector<netsim::Ipv4Address>>
OracleGroups(std::span<const core::AddressObservation> observations) {
  std::map<netsim::Ipv4Address, std::vector<netsim::Ipv4Address>> groups;
  for (const core::AddressObservation& obs : observations) {
    for (auto router : obs.last_hops) groups[router].push_back(obs.address);
  }
  for (auto& [router, members] : groups) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  return groups;
}

}  // namespace hobbit::test
