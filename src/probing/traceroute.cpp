#include "probing/traceroute.h"

#include <algorithm>
#include <cmath>

namespace hobbit::probing {

bool RoutesEqualWithWildcards(const Route& a, const Route& b) {
  if (a.reached_destination != b.reached_destination) return false;
  if (a.hops.size() != b.hops.size()) return false;
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    const Hop& ha = a.hops[i];
    const Hop& hb = b.hops[i];
    if (ha.responsive && hb.responsive && ha.address != hb.address) {
      return false;
    }
  }
  return true;
}

bool RouteSetsShareARoute(const std::vector<Route>& a,
                          const std::vector<Route>& b, bool wildcards) {
  for (const Route& ra : a) {
    for (const Route& rb : b) {
      if (wildcards ? RoutesEqualWithWildcards(ra, rb) : ra == rb) {
        return true;
      }
    }
  }
  return false;
}

int MdaProbeCount(int k) {
  // Published table for alpha = 0.05 (Augustin et al., "Multipath tracing
  // with Paris traceroute").  Index 1-based by hypothesis k.
  static constexpr int kTable[] = {0,  6,  11, 16, 21, 27, 33, 38, 44,
                                   51, 57, 63, 70, 76, 83, 90, 96};
  constexpr int kTableMax = static_cast<int>(std::size(kTable)) - 1;
  if (k <= 0) return kTable[1];
  if (k <= kTableMax) return kTable[k];
  // Extension by the underlying bound: smallest n with (k/(k+1))^n < 0.05/k.
  double n = std::log(0.05 / k) /
             std::log(static_cast<double>(k) / (k + 1));
  return static_cast<int>(std::ceil(n));
}

int MdaLiteProbeCount(int k) {
  // smallest n with (k/(k+1))^n < 0.1 — the 90 % bound without the
  // union correction, precomputed for the k the hop walks actually see.
  static constexpr int kTable[] = {0,  4,  6,  9,  11, 13, 15, 18, 20,
                                   22, 25, 27, 29, 32, 34, 36, 38};
  constexpr int kTableMax = static_cast<int>(std::size(kTable)) - 1;
  if (k <= 0) return kTable[1];
  if (k <= kTableMax) return kTable[k];
  double n = std::log(0.1) /
             std::log(static_cast<double>(k) / (k + 1));
  return static_cast<int>(std::ceil(n));
}

Route ParisTraceroute(const netsim::Simulator& simulator,
                      netsim::RouteMemo& memo,
                      netsim::Ipv4Address destination, std::uint16_t flow_id,
                      std::uint64_t& serial, const TracerouteOptions& options) {
  Route route;
  int consecutive_gaps = 0;
  for (int ttl = options.first_ttl; ttl <= options.max_ttl; ++ttl) {
    bool answered = false;
    for (int attempt = 0; attempt < options.attempts_per_hop; ++attempt) {
      netsim::ProbeSpec probe;
      probe.destination = destination;
      probe.ttl = ttl;
      probe.flow_id = flow_id;
      probe.serial = serial++;
      netsim::ProbeReply reply = simulator.Send(probe, memo);
      if (reply.kind == netsim::ReplyKind::kEchoReply) {
        route.reached_destination = true;
        return route;
      }
      if (reply.kind == netsim::ReplyKind::kTtlExceeded) {
        route.hops.push_back({true, reply.responder});
        answered = true;
        break;
      }
    }
    if (!answered) {
      route.hops.push_back({});
      if (++consecutive_gaps >= options.gap_limit) break;
    } else {
      consecutive_gaps = 0;
    }
  }
  // Ran off max_ttl or hit the gap limit without an echo reply.
  // Trim trailing wildcard hops — they carry no information.
  while (!route.hops.empty() && !route.hops.back().responsive) {
    route.hops.pop_back();
  }
  return route;
}

std::vector<Route> EnumerateRoutes(const netsim::Simulator& simulator,
                                   netsim::RouteMemo& memo,
                                   netsim::Ipv4Address destination,
                                   std::uint64_t& serial,
                                   const TracerouteOptions& options) {
  std::vector<Route> found;
  int since_new = 0;
  std::uint16_t flow = 1;
  // Fresh flow identifiers until MdaProbeCount(k) consecutive traces add
  // nothing, where k = number of routes found so far.
  while (true) {
    Route route = ParisTraceroute(simulator, memo, destination, flow++,
                                  serial, options);
    bool is_new = false;
    if (route.reached_destination) {
      if (std::find(found.begin(), found.end(), route) == found.end()) {
        found.push_back(route);
        is_new = true;
      }
    }
    since_new = is_new ? 0 : since_new + 1;
    int k = std::max<int>(1, static_cast<int>(found.size()));
    if (since_new >= MdaProbeCount(k)) break;
    if (flow > 2048) break;  // safety valve; never hit in practice
  }
  return found;
}

HopInterfaces EnumerateHopInterfaces(const netsim::Simulator& simulator,
                                     netsim::RouteMemo& memo,
                                     netsim::Ipv4Address destination, int ttl,
                                     std::uint64_t& serial,
                                     int max_interfaces_hint, MdaMode mode) {
  HopInterfaces result;
  int since_new = 0;
  std::uint16_t flow = 1;
  while (true) {
    netsim::ProbeSpec probe;
    probe.destination = destination;
    probe.ttl = ttl;
    probe.flow_id = flow++;
    probe.serial = serial++;
    ++result.probes_sent;
    netsim::ProbeReply reply = simulator.Send(probe, memo);
    bool is_new = false;
    if (reply.kind == netsim::ReplyKind::kTtlExceeded) {
      auto pos = std::lower_bound(result.interfaces.begin(),
                                  result.interfaces.end(), reply.responder);
      if (pos == result.interfaces.end() || *pos != reply.responder) {
        result.interfaces.insert(pos, reply.responder);
        is_new = true;
      }
    } else {
      ++result.wildcard_probes;
    }
    since_new = is_new ? 0 : since_new + 1;
    int k = std::max<int>(1, static_cast<int>(result.interfaces.size()));
    const int stop = mode == MdaMode::kLite ? MdaLiteProbeCount(k)
                                            : MdaProbeCount(k);
    if (since_new >= stop) break;
    if (static_cast<int>(result.interfaces.size()) >= max_interfaces_hint) {
      break;
    }
    if (flow > 2048) break;
  }
  return result;
}

}  // namespace hobbit::probing
