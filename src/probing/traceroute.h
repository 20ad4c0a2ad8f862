// traceroute.h — Paris traceroute and the Multipath Detection Algorithm.
//
// Paris traceroute holds the flow identifier constant across TTLs so every
// probe of one trace follows the same path through per-flow load
// balancers.  MDA re-runs traces under systematically varied flow
// identifiers with the 95 %-confidence stopping rule of Augustin et al.
// (E2EMON 2007) to enumerate all per-flow load-balanced routes toward a
// destination.  Per-destination balancing is invisible to both — the gap
// Hobbit exists to close.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/small_vector.h"
#include "netsim/ipv4.h"
#include "netsim/simulator.h"

namespace hobbit::probing {

/// One traceroute hop.  Unresponsive hops ("*") carry no address.
struct Hop {
  bool responsive = false;
  netsim::Ipv4Address address;

  friend bool operator==(const Hop&, const Hop&) = default;
  friend auto operator<=>(const Hop&, const Hop&) = default;
};

/// An IP-level route: hops 1..n, where hop n is the last-hop router when
/// `reached_destination` is true.  The destination itself is not a hop.
struct Route {
  std::vector<Hop> hops;
  bool reached_destination = false;

  /// The last-hop router of a completed route (may be unresponsive).
  const Hop* LastHop() const {
    return reached_destination && !hops.empty() ? &hops.back() : nullptr;
  }

  friend bool operator==(const Route&, const Route&) = default;
  friend auto operator<=>(const Route&, const Route&) = default;
};

/// True when the routes are equal treating unresponsive hops as wildcards
/// that match any address (§2.1's rate-limiting correction).  Lengths must
/// still agree.
bool RoutesEqualWithWildcards(const Route& a, const Route& b);

/// True when the two route *sets* share at least one route (the paper's
/// generous identity criterion for the §2 preliminary study).
bool RouteSetsShareARoute(const std::vector<Route>& a,
                          const std::vector<Route>& b,
                          bool wildcards = false);

/// MDA stopping rule: number of probes that must all land on already-known
/// successors to conclude, at 95 % confidence, that a node has exactly `k`
/// successors (k >= 1).  Table from Augustin et al.; extended by formula
/// beyond its published end.
int MdaProbeCount(int k);

/// MDA-Lite stopping rule (Vermeulen et al., "Multilevel MDA-Lite Paris
/// Traceroute"): a relaxed 90 %-confidence bound without the per-k
/// union correction — smallest n with (k/(k+1))^n < 0.1.  Strictly
/// cheaper than MdaProbeCount at every k (4 vs 6 at k=1, 6 vs 11 at
/// k=2, ...), at the cost of occasionally missing an interface of a
/// wide hop.
int MdaLiteProbeCount(int k);

/// Which stopping rule hop-level enumeration runs under.  Full MDA is
/// the default everywhere and stays the differential reference for the
/// lite mode (see bench_scenario's accuracy-vs-cost matrix).
enum class MdaMode : std::uint8_t {
  kFull,  ///< Augustin et al. 95 % rule (MdaProbeCount)
  kLite,  ///< MDA-Lite 90 % rule (MdaLiteProbeCount)
};

struct TracerouteOptions {
  int first_ttl = 1;
  int max_ttl = 40;
  /// Traceroute gives up after this many consecutive unanswered TTLs
  /// (standard gap limit — distinguishes a dead destination from a silent
  /// router).
  int gap_limit = 4;
  /// Retransmissions per TTL before declaring the hop unresponsive.
  int attempts_per_hop = 2;
};

// Every probe below goes through the caller's `memo` (single-threaded
// use): keep one per loop, never one per call inside a loop.

/// One Paris traceroute with a fixed flow identifier.
/// `serial` is advanced past every probe sent.
Route ParisTraceroute(const netsim::Simulator& simulator,
                      netsim::RouteMemo& memo,
                      netsim::Ipv4Address destination, std::uint16_t flow_id,
                      std::uint64_t& serial,
                      const TracerouteOptions& options = {});

/// Route-level MDA: enumerates the distinct per-flow routes toward
/// `destination`.  Keeps launching Paris traceroutes under fresh flow
/// identifiers until MdaProbeCount(#routes) consecutive traces reveal
/// nothing new.  Routes that failed to reach the destination are dropped.
std::vector<Route> EnumerateRoutes(const netsim::Simulator& simulator,
                                   netsim::RouteMemo& memo,
                                   netsim::Ipv4Address destination,
                                   std::uint64_t& serial,
                                   const TracerouteOptions& options = {});

/// Hop-level MDA at one TTL: enumerates the interfaces answering at
/// distance `ttl` under varied flow identifiers, with the stopping rule
/// selected by `mode` (full MDA by default; MdaMode::kLite trades
/// completeness for probe savings).  `wildcards` counts probes that got
/// no answer.
struct HopInterfaces {
  /// Sorted, unique.  Inline small-vector storage: a hop almost always
  /// has 1-2 interfaces, and this struct is built once per probed
  /// destination on the measurement hot path.
  common::SmallVector<netsim::Ipv4Address, 4> interfaces;
  int wildcard_probes = 0;
  int probes_sent = 0;
};
HopInterfaces EnumerateHopInterfaces(const netsim::Simulator& simulator,
                                     netsim::RouteMemo& memo,
                                     netsim::Ipv4Address destination, int ttl,
                                     std::uint64_t& serial,
                                     int max_interfaces_hint = 16,
                                     MdaMode mode = MdaMode::kFull);

}  // namespace hobbit::probing
