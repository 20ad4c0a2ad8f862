#include "hobbit/prober.h"

#include <algorithm>
#include <array>

#include "hobbit/hierarchy.h"
#include "probing/last_hop.h"
#include "probing/traceroute.h"

namespace hobbit::core {
namespace {

/// Destination iterator implementing §3.3: group active octets by /26,
/// deal them round-robin, reshuffling the /26 order at each round.
class DestinationSchedule {
 public:
  DestinationSchedule(const probing::ZmapBlock& block, netsim::Rng rng)
      : base_(block.prefix.base()), rng_(rng) {
    // Bit iteration yields each /26's octets in ascending order.
    for (std::uint8_t octet : block.ActiveOctets()) {
      const int q = octet >> 6;
      quarters_[q][size_[q]++] = octet;
    }
    // Probe order inside each /26 is randomized once.
    for (int q = 0; q < 4; ++q) {
      for (std::size_t i = size_[q]; i > 1; --i) {
        std::swap(quarters_[q][i - 1], quarters_[q][rng_.NextBelow(i)]);
      }
    }
    order_ = {0, 1, 2, 3};
    ShuffleOrder();
  }

  /// Next destination, or nullopt when all actives are consumed.
  std::optional<netsim::Ipv4Address> Next() {
    std::size_t remaining = 0;
    for (int q = 0; q < 4; ++q) remaining += size_[q] - cursor_[q];
    if (remaining == 0) return std::nullopt;
    while (true) {
      if (round_pos_ == order_.size()) {
        round_pos_ = 0;
        ShuffleOrder();
      }
      const std::uint8_t q = order_[round_pos_++];
      if (cursor_[q] < size_[q]) {
        std::uint8_t octet = quarters_[q][cursor_[q]++];
        return netsim::Ipv4Address(base_.value() | octet);
      }
    }
  }

 private:
  void ShuffleOrder() {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.NextBelow(i)]);
    }
  }

  netsim::Ipv4Address base_;
  netsim::Rng rng_;
  std::array<std::array<std::uint8_t, 64>, 4> quarters_;
  std::array<std::size_t, 4> size_ = {0, 0, 0, 0};
  std::array<std::size_t, 4> cursor_ = {0, 0, 0, 0};
  std::array<std::uint8_t, 4> order_;
  std::size_t round_pos_ = 0;
};

/// Merges `add` (sorted unique) into `set` (sorted unique), keeping order.
template <typename Container>
void MergeLastHops(std::vector<netsim::Ipv4Address>& set,
                   const Container& add) {
  set.reserve(set.size() + add.size());
  for (netsim::Ipv4Address a : add) {
    auto pos = std::lower_bound(set.begin(), set.end(), a);
    if (pos == set.end() || *pos != a) set.insert(pos, a);
  }
}

}  // namespace

BlockResult BlockProber::ProbeBlock(const probing::ZmapBlock& block,
                                    netsim::Rng rng) {
  probing::LastHopProber prober(simulator_, memo_,
                                options_.mda_lite ? probing::MdaMode::kLite
                                                  : probing::MdaMode::kFull);
  BlockResult result = ProbeBlockImpl(block, rng, prober);
  // Sole accounting point: every termination path of the impl lands here,
  // so probes_used is recorded exactly once per block.
  result.probes_used = static_cast<int>(prober.probes_sent());
  probes_sent_ += prober.probes_sent();
  return result;
}

BlockResult BlockProber::ProbeBlockImpl(const probing::ZmapBlock& block,
                                        netsim::Rng rng,
                                        probing::LastHopProber& prober) {
  BlockResult result;
  result.prefix = block.prefix;
  result.active_in_snapshot = block.ActiveCount();

  DestinationSchedule schedule(block, rng.Fork(0x5C4EDULL));

  // Grouping state: each observation folds into per-last-hop [min, max]
  // ranges and the running common last-hop set as it arrives (O(log g));
  // see IncrementalGrouping.
  IncrementalGrouping grouping;

  int usable = 0;                 // destinations with an identified last hop
  int consecutive_no_new = 0;     // reprobe strategy counter
  bool stopped_by_rule = false;

  while (auto destination = schedule.Next()) {
    probing::LastHopResult lh = prober.Probe(*destination);
    switch (lh.status) {
      case probing::LastHopStatus::kHostUnresponsive:
        ++result.hosts_unresponsive;
        continue;
      case probing::LastHopStatus::kLastHopUnresponsive:
        ++result.lasthop_unresponsive;
        continue;
      case probing::LastHopStatus::kOk:
        break;
    }
    const std::size_t before = result.last_hop_set.size();
    MergeLastHops(result.last_hop_set, lh.last_hops);
    result.observations.push_back({*destination, std::move(lh.last_hops)});
    ++usable;
    consecutive_no_new =
        result.last_hop_set.size() == before ? consecutive_no_new + 1 : 0;

    grouping.Add(result.observations.back());
    const int cardinality = static_cast<int>(grouping.group_count());

    if (options_.reprobe_strategy) {
      // §6.5: keep going until the last-hop set is exhausted with MDA
      // confidence; no early homogeneity stop.
      if (consecutive_no_new >= probing::MdaProbeCount(
                                    std::max(1, cardinality))) {
        stopped_by_rule = true;
        break;
      }
      continue;
    }

    // Standard strategy terminations.
    const bool common = grouping.HasCommonLastHop();
    if (!common && cardinality >= 2 && !grouping.Hierarchical()) {
      result.classification = Classification::kNonHierarchical;
      return result;
    }
    if (common && usable >= options_.same_last_hop_stop) {
      // Every destination shares a last-hop router (§3.5's six-probe
      // rule; "common" rather than "only", since per-flow balancing at
      // the final hop gives addresses several last-hop interfaces).
      result.classification = Classification::kSameLastHop;
      return result;
    }
    // The confidence rule only concerns blocks with no common last hop: a
    // shared interface is handled by the six-destination rule above, and
    // its confidence cell would be trivially 1.0.
    if (table_ != nullptr && !common && cardinality >= 2 &&
        usable >= options_.min_active) {
      auto confidence = table_->Confidence(cardinality, usable,
                                           options_.min_cell_trials);
      if (confidence && *confidence >= options_.confidence_level) {
        stopped_by_rule = true;
        break;
      }
    }
  }

  // Ran out of destinations, or the confidence rule fired.
  if (usable < options_.min_active) {
    result.classification = result.lasthop_unresponsive > 0 && usable == 0
                                ? Classification::kUnresponsiveLastHop
                                : Classification::kTooFewActive;
    return result;
  }
  const int cardinality = static_cast<int>(grouping.group_count());
  if (grouping.HasCommonLastHop()) {
    // A shared last hop throughout, but we never reached the
    // six-destination rule: the block had too few usable addresses to
    // trust the verdict.
    result.classification = usable >= options_.same_last_hop_stop
                                ? Classification::kSameLastHop
                                : Classification::kTooFewActive;
    return result;
  }
  if (cardinality >= 2 && !grouping.Hierarchical()) {
    result.classification = Classification::kNonHierarchical;
    return result;
  }
  if (stopped_by_rule) {
    result.classification = Classification::kDifferentButHierarchical;
    return result;
  }
  // Exhausted all actives with a hierarchical grouping.  If a confidence
  // cell exists and says we probed enough, the hierarchy verdict stands;
  // otherwise the paper files the block under "not analyzable".
  if (table_ != nullptr) {
    auto confidence = table_->Confidence(cardinality, usable,
                                         options_.min_cell_trials);
    if (confidence && *confidence >= options_.confidence_level) {
      result.classification = Classification::kDifferentButHierarchical;
      return result;
    }
    if (confidence) {
      result.classification = Classification::kTooFewActive;
      return result;
    }
  }
  // No table (calibration) or no data for the cell: we probed everything
  // there was to probe, so classify on the full information we have.
  result.classification = Classification::kDifferentButHierarchical;
  return result;
}

FullyProbedBlock BlockProber::ProbeBlockFully(const probing::ZmapBlock& block,
                                              netsim::Rng rng) {
  FullyProbedBlock result;
  result.prefix = block.prefix;

  DestinationSchedule schedule(block, rng.Fork(0xF0BBULL));
  probing::LastHopProber prober(simulator_, memo_,
                                options_.mda_lite ? probing::MdaMode::kLite
                                                  : probing::MdaMode::kFull);
  std::vector<netsim::Ipv4Address> union_set;
  while (auto destination = schedule.Next()) {
    probing::LastHopResult lh = prober.Probe(*destination);
    if (lh.status != probing::LastHopStatus::kOk) continue;
    MergeLastHops(union_set, lh.last_hops);
    result.observations.push_back({*destination, std::move(lh.last_hops)});
  }
  probes_sent_ += prober.probes_sent();
  result.cardinality = static_cast<int>(union_set.size());
  result.homogeneous = HobbitSaysHomogeneous(result.observations);
  return result;
}

}  // namespace hobbit::core
