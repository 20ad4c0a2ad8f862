// outage_detection.h — a Trinocular-style adaptive outage detector.
//
// Trinocular (Quan et al., SIGCOMM 2013) watches /24 blocks with
// Bayesian adaptive probing: probe known-active addresses of a block
// until the belief that the block is up (or down) is strong enough.  The
// paper under reproduction motivates Hobbit with Trinocular's blind spot:
// when only a *part* of a /24 fails — exactly what happens when the /24
// is secretly several customer sub-blocks — the responding remainder
// keeps the belief "up" and the outage is missed.  Hobbit's sub-block
// structure fixes the watch granularity.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/ipv4.h"
#include "netsim/rng.h"
#include "netsim/simulator.h"

namespace hobbit::analysis {

/// A unit under outage watch: its known-active addresses and the fraction
/// of them expected to answer when the unit is up (Trinocular's A).
struct WatchedBlock {
  std::vector<netsim::Ipv4Address> actives;
  double baseline_availability = 0.9;
};

enum class OutageVerdict : std::uint8_t { kUp, kDown, kUndecided };

struct DetectionParams {
  /// Belief thresholds (posterior P(up)).
  double up_threshold = 0.9;
  double down_threshold = 0.1;
  /// Probe budget per round.
  int max_probes = 16;
  /// P(response | host's unit is down): background noise.
  double response_if_down = 0.01;
  double prior_up = 0.5;
};

struct DetectionResult {
  OutageVerdict verdict = OutageVerdict::kUndecided;
  double belief_up = 0.5;
  int probes_used = 0;
};

/// Builds a watch unit by probing every address once at baseline (no
/// outage installed) and keeping the responders.  Both functions probe
/// through the caller's `memo`; pass one memo to every call of a loop.
WatchedBlock MakeWatchedBlock(
    const netsim::Simulator& simulator, netsim::RouteMemo& memo,
    const std::vector<netsim::Ipv4Address>& candidates);

/// One adaptive detection round against the current network state.
DetectionResult DetectOutage(const netsim::Simulator& simulator,
                             netsim::RouteMemo& memo,
                             const WatchedBlock& block,
                             const DetectionParams& params, netsim::Rng rng);

}  // namespace hobbit::analysis
