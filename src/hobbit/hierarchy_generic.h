// hierarchy_generic.h — the Hobbit hierarchy machinery, generic over the
// address type.
//
// Hobbit's core argument never uses anything IPv4-specific: it needs a
// totally ordered address space in which route entries are contiguous
// ranges.  The generic implementation below serves both the IPv4 study
// (hierarchy.h) and the IPv6 pilot (ipv6_pilot.h, the paper's stated
// future work).
#pragma once

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <vector>

namespace hobbit::core {

/// One last-hop group over an arbitrary ordered address type.
template <typename Address>
struct BasicAddressGroup {
  Address router;
  std::vector<Address> members;  // sorted
  Address min;
  Address max;
};

/// Groups observations (anything with `.address` and a sorted
/// `.last_hops` container of Address) by last-hop router.
template <typename Address, typename Observation>
std::vector<BasicAddressGroup<Address>> GroupByLastHopGeneric(
    std::span<const Observation> observations) {
  std::map<Address, std::vector<Address>> by_router;
  for (const Observation& obs : observations) {
    for (const Address& router : obs.last_hops) {
      by_router[router].push_back(obs.address);
    }
  }
  std::vector<BasicAddressGroup<Address>> groups;
  groups.reserve(by_router.size());
  for (auto& [router, members] : by_router) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    BasicAddressGroup<Address> group;
    group.router = router;
    group.min = members.front();
    group.max = members.back();
    group.members = std::move(members);
    groups.push_back(std::move(group));
  }
  return groups;
}

/// A contiguous address range (both ends inclusive).
template <typename Address>
struct MinMaxRange {
  Address min, max;
};

/// Laminar-family check over bare ranges: true when every pair is disjoint
/// or nested.  Sorts `ranges` in place (callers pass scratch storage).
template <typename Address>
bool RangesAreLaminar(std::vector<MinMaxRange<Address>>& ranges) {
  if (ranges.size() < 2) return true;
  using Range = MinMaxRange<Address>;
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) {
              if (a.min < b.min) return true;
              if (b.min < a.min) return false;
              return b.max < a.max;  // wider first on equal min
            });
  std::vector<Range> stack;
  for (const Range& cur : ranges) {
    while (!stack.empty() && stack.back().max < cur.min) stack.pop_back();
    if (!stack.empty() && stack.back().max < cur.max) return false;
    stack.push_back(cur);
  }
  return true;
}

/// Laminar-family check: every pair of group ranges disjoint or nested.
template <typename Address>
bool GroupsAreHierarchicalGeneric(
    std::span<const BasicAddressGroup<Address>> groups) {
  if (groups.size() < 2) return true;
  std::vector<MinMaxRange<Address>> ranges;
  ranges.reserve(groups.size());
  for (const auto& group : groups) ranges.push_back({group.min, group.max});
  return RangesAreLaminar(ranges);
}

/// Keeps `common` (sorted unique) to its intersection with `other` (also
/// sorted unique), writing the survivors in place — no allocation.
template <typename Container, typename OtherContainer>
void IntersectSortedInPlace(Container& common, const OtherContainer& other) {
  auto out = common.begin();
  auto a = common.begin();
  const auto a_end = common.end();
  auto b = std::begin(other);
  const auto b_end = std::end(other);
  while (a != a_end && b != b_end) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      *out++ = *a;
      ++a;
      ++b;
    }
  }
  common.erase(out, a_end);
}

/// Incremental equivalent of GroupByLastHopGeneric +
/// GroupsAreHierarchicalGeneric for the adaptive probing loop (§3.3).
///
/// The batch pipeline regroups ALL observations after every probe —
/// O(n log n) each time, O(n^2 log n) per block.  But the hierarchy
/// verdict only reads each group's [min, max] range, and a new
/// observation can only *extend* ranges it touches, so per observation we
/// maintain one map entry per last-hop interface: O(log g) with g =
/// distinct last hops (single digits in practice).
///
/// The laminar verdict itself is NOT monotone — two partially overlapping
/// ranges can become nested again once one of them grows — so it cannot
/// be latched false; instead a dirty flag triggers a lazy O(g log g)
/// recompute, and ranges change only O(log n) times each in expectation
/// under random probe order (running-extremum updates), keeping the
/// amortized cost per observation near-constant.
///
/// Equivalence with the batch path holds by construction: duplicate
/// members never move a min or max, multi-interface observations join
/// every touched group (same as the batch grouping), and group count
/// equals the number of distinct last-hop interfaces either way.  The
/// differential tests (tests/test_incremental_grouping.cpp) check this on
/// randomized sequences and on every prefix of a campaign's observations.
template <typename Address>
class BasicIncrementalGrouping {
 public:
  /// Folds one observation (anything with `.address` and an iterable
  /// `.last_hops`) into the grouping state.
  template <typename Observation>
  void Add(const Observation& obs) {
    for (const Address& router : obs.last_hops) {
      auto [it, inserted] =
          ranges_.try_emplace(router, MinMaxRange<Address>{obs.address,
                                                           obs.address});
      if (inserted) {
        dirty_ = true;
        continue;
      }
      MinMaxRange<Address>& range = it->second;
      if (obs.address < range.min) {
        range.min = obs.address;
        dirty_ = true;
      }
      if (range.max < obs.address) {
        range.max = obs.address;
        dirty_ = true;
      }
    }
  }

  /// Number of distinct last-hop interfaces seen so far.
  std::size_t group_count() const { return ranges_.size(); }

  /// Matches GroupsAreHierarchicalGeneric(GroupByLastHopGeneric(all
  /// observations added so far)).  Lazily recomputed; cached between
  /// range changes.
  bool Hierarchical() const {
    if (dirty_) {
      scratch_.clear();
      scratch_.reserve(ranges_.size());
      for (const auto& [router, range] : ranges_) scratch_.push_back(range);
      hierarchical_ = RangesAreLaminar(scratch_);
      dirty_ = false;
    }
    return hierarchical_;
  }

  void Clear() {
    ranges_.clear();
    dirty_ = false;
    hierarchical_ = true;
  }

 private:
  std::map<Address, MinMaxRange<Address>> ranges_;
  mutable std::vector<MinMaxRange<Address>> scratch_;
  mutable bool dirty_ = false;
  mutable bool hierarchical_ = true;  // vacuously, for < 2 groups
};

/// True when some last-hop router appears in every observation.
template <typename Address, typename Observation>
bool HaveCommonLastHopGeneric(std::span<const Observation> observations) {
  if (observations.empty()) return false;
  std::vector<Address> common(observations.front().last_hops.begin(),
                              observations.front().last_hops.end());
  for (const Observation& obs : observations) {
    if (common.empty()) return false;
    std::vector<Address> next;
    std::set_intersection(common.begin(), common.end(),
                          obs.last_hops.begin(), obs.last_hops.end(),
                          std::back_inserter(next));
    common = std::move(next);
  }
  return !common.empty();
}

/// Hobbit's homogeneity verdict: one group, a common last hop, or a
/// non-hierarchical grouping.
template <typename Address, typename Observation>
bool HobbitVerdictGeneric(std::span<const Observation> observations) {
  auto groups = GroupByLastHopGeneric<Address>(observations);
  if (groups.empty()) return false;
  if (groups.size() == 1) return true;
  if (HaveCommonLastHopGeneric<Address>(observations)) return true;
  return !GroupsAreHierarchicalGeneric<Address>(
      std::span<const BasicAddressGroup<Address>>(groups));
}

}  // namespace hobbit::core
