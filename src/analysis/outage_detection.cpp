#include "analysis/outage_detection.h"

#include <algorithm>

#include "probing/ping.h"

namespace hobbit::analysis {

WatchedBlock MakeWatchedBlock(
    const netsim::Simulator& simulator, netsim::RouteMemo& memo,
    const std::vector<netsim::Ipv4Address>& candidates) {
  WatchedBlock block;
  probing::Pinger pinger(&simulator, memo);
  for (netsim::Ipv4Address address : candidates) {
    if (pinger.Ping(address).has_value()) block.actives.push_back(address);
  }
  if (!candidates.empty()) {
    block.baseline_availability =
        std::max(0.05, static_cast<double>(block.actives.size()) /
                           static_cast<double>(candidates.size()));
  }
  return block;
}

DetectionResult DetectOutage(const netsim::Simulator& simulator,
                             netsim::RouteMemo& memo,
                             const WatchedBlock& block,
                             const DetectionParams& params,
                             netsim::Rng rng) {
  DetectionResult result;
  result.belief_up = params.prior_up;
  if (block.actives.empty()) {
    result.verdict = OutageVerdict::kUndecided;
    return result;
  }

  // Probe known-active addresses in random order, updating the posterior
  // after each probe (Trinocular's short-term belief update).
  std::vector<netsim::Ipv4Address> order = block.actives;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    std::swap(order[i], order[i + rng.NextBelow(order.size() - i)]);
  }
  probing::Pinger pinger(&simulator, memo);
  // P(response | up): a known-active answers with (churn-adjusted)
  // probability close to 1; Trinocular uses the block's A for fresh
  // addresses.  Use a conservative blend.
  const double p_response_up =
      std::min(0.95, 0.5 + 0.5 * block.baseline_availability);

  const int budget =
      std::min<int>(params.max_probes, static_cast<int>(order.size()));
  for (int i = 0; i < budget; ++i) {
    const bool answered = pinger.Ping(order[static_cast<std::size_t>(i)])
                              .has_value();
    ++result.probes_used;
    const double like_up =
        answered ? p_response_up : 1.0 - p_response_up;
    const double like_down = answered ? params.response_if_down
                                      : 1.0 - params.response_if_down;
    const double numerator = like_up * result.belief_up;
    result.belief_up =
        numerator / (numerator + like_down * (1.0 - result.belief_up));
    if (result.belief_up >= params.up_threshold) {
      result.verdict = OutageVerdict::kUp;
      return result;
    }
    if (result.belief_up <= params.down_threshold) {
      result.verdict = OutageVerdict::kDown;
      return result;
    }
  }
  result.verdict = OutageVerdict::kUndecided;
  return result;
}

}  // namespace hobbit::analysis
