// hierarchy.h — the heart of Hobbit (paper §2.3).
//
// Group probed addresses by last-hop router and represent each group by
// the numeric range [min, max] of its members.  Distinct route entries are
// prefix-based, so ranges caused by *routing* form a laminar family: any
// two are disjoint or nested.  Load-balancer hashes interleave addresses,
// so a *non-hierarchical* (partially overlapping) pair of ranges is
// positive evidence that the last-hop differences are load balancing —
// i.e. that the block is homogeneous.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "hobbit/types.h"
#include "netsim/ipv4.h"

namespace hobbit::core {

/// One last-hop group: the addresses that share a last-hop interface,
/// summarized by their range.
struct AddressGroup {
  netsim::Ipv4Address router;
  netsim::Ipv4Address min;
  netsim::Ipv4Address max;
  /// Observations that joined the group.  Equals the number of distinct
  /// members whenever each address is observed once, as in every probed
  /// block.
  std::size_t member_count = 0;
};

/// The one last-hop grouping of a block (§2.3), built one observation at
/// a time for the adaptive probing loop (§3.3).
///
/// Every verdict reads only each group's [min, max] range, and a new
/// observation can only *extend* the ranges it touches, so the state is
/// one ordered map entry per last-hop interface: O(log g) per
/// observation, with g = distinct last hops (single digits in practice).
/// Alongside it runs the intersection of the observations' last-hop sets,
/// i.e. the interfaces common to every address so far.
///
/// The laminar verdict is NOT monotone — two partially overlapping ranges
/// can become nested again once one of them grows — so it cannot be
/// latched false; instead a dirty flag triggers a lazy O(g log g)
/// recompute, and ranges change only O(log n) times each in expectation
/// under random probe order (running-extremum updates), keeping the
/// amortized cost per observation near-constant.
///
/// tests/grouping_oracle.h keeps the batch regroup (every member, every
/// time) as the differential oracle; tests/test_incremental_grouping.cpp
/// checks agreement on randomized sequences and on every prefix of a
/// campaign's observations.
class IncrementalGrouping {
 public:
  /// Folds one observation: its address joins the group of every
  /// interface in its (sorted unique) last-hop set.
  void Add(const AddressObservation& obs);

  /// Number of distinct last-hop interfaces seen so far.
  std::size_t group_count() const { return groups_.size(); }

  /// True when some last-hop interface appears in every observation added
  /// so far — the paper's "all the addresses have a common last-hop
  /// router" condition.  (Per-flow load balancing at the final hop gives
  /// each address several last-hop interfaces; sharing one is enough.)
  /// False before the first observation.
  bool HasCommonLastHop() const { return !common_.empty(); }

  /// True when every pair of group ranges is hierarchical (disjoint or
  /// nested).  Vacuously true for fewer than two groups.  Lazily
  /// recomputed; cached between range changes.
  bool Hierarchical() const;

  /// The groups, sorted by router.
  std::vector<AddressGroup> Groups() const;

  void Clear();

 private:
  std::map<netsim::Ipv4Address, AddressGroup> groups_;
  LastHopSet common_;
  bool empty_ = true;
  mutable std::vector<AddressGroup> scratch_;
  mutable bool dirty_ = false;
  mutable bool hierarchical_ = true;  // vacuously, for < 2 groups
};

/// Builds groups from observations.  An address with several last-hop
/// interfaces joins every corresponding group.  Observations with no
/// identified last hop are skipped.  Groups come back sorted by router.
std::vector<AddressGroup> GroupByLastHop(
    std::span<const AddressObservation> observations);

/// True when every pair of group ranges is hierarchical (disjoint or one
/// containing the other).  Vacuously true for fewer than two groups.
bool GroupsAreHierarchical(std::span<const AddressGroup> groups);

/// True when some last-hop interface appears in EVERY observation (see
/// IncrementalGrouping::HasCommonLastHop).
bool HaveCommonLastHop(std::span<const AddressObservation> observations);

/// Hobbit's homogeneity verdict on a set of observations: a single
/// group, a common last-hop router shared by all addresses, or a
/// non-hierarchical grouping.
bool HobbitSaysHomogeneous(std::span<const AddressObservation> observations);

/// The §4.2 "very likely heterogeneous" test: at least two groups, each
/// spanning more than one address (singleton /32 spans carry no
/// route-entry evidence), all pairwise *disjoint*, and *aligned* — each
/// group's spanning subnet (the longest-common-prefix subnet of its
/// range) contains no member of any other group.
bool IsAlignedDisjoint(std::span<const AddressGroup> groups);

/// Sub-block composition of an aligned-disjoint /24 (Table 2): the
/// spanning-prefix lengths of the groups, sorted ascending (so {/25,/26,
/// /26} prints in the paper's order).
std::vector<int> SubBlockComposition(std::span<const AddressGroup> groups);

}  // namespace hobbit::core
