// types.h — shared vocabulary of the Hobbit core library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/ipv4.h"
#include "probing/last_hop.h"

namespace hobbit::core {

/// Per-destination last-hop interface set: the prober's own type, so a
/// reply's set folds into a grouping without conversion.
using LastHopSet = probing::LastHopSet;

/// The five-way outcome of measuring one /24 (paper Table 1).
enum class Classification : std::uint8_t {
  kTooFewActive,            ///< not analyzable: not enough usable addresses
  kUnresponsiveLastHop,     ///< not analyzable: no last-hop ever answered
  kSameLastHop,             ///< homogeneous: one common last-hop router
  kNonHierarchical,         ///< homogeneous: grouping defeats hierarchy
  kDifferentButHierarchical,///< possibly heterogeneous (<= 5 % homogeneous)
};

std::string ToString(Classification c);

constexpr bool IsHomogeneous(Classification c) {
  return c == Classification::kSameLastHop ||
         c == Classification::kNonHierarchical;
}

constexpr bool IsAnalyzable(Classification c) {
  return c != Classification::kTooFewActive &&
         c != Classification::kUnresponsiveLastHop;
}

/// One probed destination and the last-hop interfaces found for it.
struct AddressObservation {
  netsim::Ipv4Address address;
  /// Sorted unique last-hop interfaces (usually one; more under per-flow
  /// diversity at the final hop).  Empty == last hop unresponsive.
  LastHopSet last_hops;
};

/// The measurement record of one /24 block.
struct BlockResult {
  netsim::Prefix prefix;
  Classification classification = Classification::kTooFewActive;
  /// Destinations whose last hop was identified.
  std::vector<AddressObservation> observations;
  /// Union of all observed last-hop interfaces, sorted unique — the
  /// block's signature for aggregation (§5).
  std::vector<netsim::Ipv4Address> last_hop_set;
  int active_in_snapshot = 0;
  int hosts_unresponsive = 0;
  int lasthop_unresponsive = 0;
  int probes_used = 0;
};

/// A /24 probed exhaustively (calibration stage / reprobing): same data as
/// BlockResult plus the full-information homogeneity verdict.
struct FullyProbedBlock {
  netsim::Prefix prefix;
  std::vector<AddressObservation> observations;
  /// Hobbit's verdict given *all* observations.
  bool homogeneous = false;
  /// Distinct last-hop interfaces across all observations.
  int cardinality = 0;
};

}  // namespace hobbit::core
