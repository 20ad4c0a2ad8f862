#include "hobbit/hierarchy.h"

#include <algorithm>

namespace hobbit::core {
namespace {

/// Laminar-family check: true when every pair of ranges is disjoint or
/// nested.  Sorts `groups` in place (callers pass scratch storage).
bool RangesAreLaminar(std::vector<AddressGroup>& groups) {
  if (groups.size() < 2) return true;
  std::sort(groups.begin(), groups.end(),
            [](const AddressGroup& a, const AddressGroup& b) {
              if (a.min != b.min) return a.min < b.min;
              return b.max < a.max;  // wider first on equal min
            });
  std::vector<const AddressGroup*> stack;
  for (const AddressGroup& cur : groups) {
    while (!stack.empty() && stack.back()->max < cur.min) stack.pop_back();
    if (!stack.empty() && stack.back()->max < cur.max) return false;
    stack.push_back(&cur);
  }
  return true;
}

/// Keeps `common` (sorted unique) to its intersection with `other` (also
/// sorted unique), writing the survivors in place — no allocation.
void IntersectSortedInPlace(LastHopSet& common, const LastHopSet& other) {
  auto out = common.begin();
  auto a = common.begin();
  auto b = other.begin();
  while (a != common.end() && b != other.end()) {
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
  common.erase(out, common.end());
}

IncrementalGrouping Fold(std::span<const AddressObservation> observations) {
  IncrementalGrouping grouping;
  for (const AddressObservation& obs : observations) grouping.Add(obs);
  return grouping;
}

}  // namespace

void IncrementalGrouping::Add(const AddressObservation& obs) {
  if (empty_) {
    common_ = obs.last_hops;
    empty_ = false;
  } else if (!common_.empty()) {
    IntersectSortedInPlace(common_, obs.last_hops);
  }
  for (netsim::Ipv4Address router : obs.last_hops) {
    auto [it, inserted] = groups_.try_emplace(
        router, AddressGroup{router, obs.address, obs.address, 1});
    if (inserted) {
      dirty_ = true;
      continue;
    }
    AddressGroup& group = it->second;
    ++group.member_count;
    if (obs.address < group.min) {
      group.min = obs.address;
      dirty_ = true;
    }
    if (group.max < obs.address) {
      group.max = obs.address;
      dirty_ = true;
    }
  }
}

bool IncrementalGrouping::Hierarchical() const {
  if (dirty_) {
    scratch_.clear();
    for (const auto& [router, group] : groups_) scratch_.push_back(group);
    hierarchical_ = RangesAreLaminar(scratch_);
    dirty_ = false;
  }
  return hierarchical_;
}

std::vector<AddressGroup> IncrementalGrouping::Groups() const {
  std::vector<AddressGroup> groups;
  groups.reserve(groups_.size());
  for (const auto& [router, group] : groups_) groups.push_back(group);
  return groups;
}

void IncrementalGrouping::Clear() {
  groups_.clear();
  common_.clear();
  empty_ = true;
  dirty_ = false;
  hierarchical_ = true;
}

std::vector<AddressGroup> GroupByLastHop(
    std::span<const AddressObservation> observations) {
  return Fold(observations).Groups();
}

bool GroupsAreHierarchical(std::span<const AddressGroup> groups) {
  std::vector<AddressGroup> scratch(groups.begin(), groups.end());
  return RangesAreLaminar(scratch);
}

bool HaveCommonLastHop(std::span<const AddressObservation> observations) {
  return Fold(observations).HasCommonLastHop();
}

bool HobbitSaysHomogeneous(
    std::span<const AddressObservation> observations) {
  const IncrementalGrouping grouping = Fold(observations);
  if (grouping.group_count() == 0) return false;
  return grouping.group_count() == 1 || grouping.HasCommonLastHop() ||
         !grouping.Hierarchical();
}

bool IsAlignedDisjoint(std::span<const AddressGroup> groups) {
  if (groups.size() < 2) return false;
  // Every group must span more than one address: a singleton's spanning
  // "subnet" is a /32, which is trivially aligned and says nothing about
  // route entries — thinly sampled per-destination balancing would
  // otherwise masquerade as customer sub-blocks.
  for (const AddressGroup& group : groups) {
    if (!(group.min < group.max)) return false;
  }
  // Pairwise disjoint ranges.
  std::vector<const AddressGroup*> sorted;
  sorted.reserve(groups.size());
  for (const AddressGroup& g : groups) sorted.push_back(&g);
  std::sort(sorted.begin(), sorted.end(),
            [](const AddressGroup* a, const AddressGroup* b) {
              return a->min < b->min;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i]->min <= sorted[i - 1]->max) return false;
  }
  // Aligned: each spanning subnet contains only its own group's members.
  for (const AddressGroup* g : sorted) {
    netsim::Prefix span_prefix = netsim::SpanningPrefix(g->min, g->max);
    for (const AddressGroup* other : sorted) {
      if (other == g) continue;
      // Testing the other group's extremes suffices: the spanning prefix
      // is an interval, so if it contains any member of `other` it must
      // contain other->min or other->max (otherwise `other`'s range would
      // straddle this group's range, contradicting disjointness).
      if (span_prefix.Contains(other->min) ||
          span_prefix.Contains(other->max)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> SubBlockComposition(std::span<const AddressGroup> groups) {
  std::vector<int> lengths;
  lengths.reserve(groups.size());
  for (const AddressGroup& g : groups) {
    lengths.push_back(netsim::SpanningPrefix(g.min, g.max).length());
  }
  std::sort(lengths.begin(), lengths.end());
  return lengths;
}

}  // namespace hobbit::core
