#include "probing/last_hop.h"

#include "probing/traceroute.h"

namespace hobbit::probing {
namespace {

struct SingleProbe {
  netsim::ReplyKind kind;
  netsim::Ipv4Address responder;
  int reply_ttl;
};

SingleProbe SendOne(const netsim::Simulator& simulator,
                    netsim::RouteMemo& memo,
                    netsim::Ipv4Address destination, int ttl,
                    std::uint16_t flow, std::uint64_t& serial) {
  netsim::ProbeSpec probe;
  probe.destination = destination;
  probe.ttl = ttl;
  probe.flow_id = flow;
  probe.serial = serial++;
  netsim::ProbeReply reply = simulator.Send(probe, memo);
  return {reply.kind, reply.responder, reply.reply_ttl};
}

}  // namespace

LastHopResult LastHopProber::Probe(netsim::Ipv4Address destination) {
  LastHopResult result;
  const std::uint64_t serial_before = serial_;

  // Step 1-2: echo, infer hop distance of the last router.
  SingleProbe echo =
      SendOne(*simulator_, *memo_, destination, 64, 0, serial_);
  if (echo.kind != netsim::ReplyKind::kEchoReply) {
    result.status = LastHopStatus::kHostUnresponsive;
    result.probes_used = static_cast<int>(serial_ - serial_before);
    return result;
  }
  int first_ttl = InferDefaultTtl(echo.reply_ttl) - echo.reply_ttl;
  if (first_ttl < 1) first_ttl = 1;

  // Step 3: find the destination's hop by probing at first_ttl and either
  // halving (overshoot: the echo answered, so we were past the last
  // router) or walking forward until the destination answers.
  int host_hop = 0;
  constexpr int kMaxWalk = 48;
  while (host_hop == 0) {
    SingleProbe at =
        SendOne(*simulator_, *memo_, destination, first_ttl, 1, serial_);
    if (at.kind == netsim::ReplyKind::kEchoReply && first_ttl > 1) {
      first_ttl /= 2;  // overestimate: halve and retry (paper §3.4)
      continue;
    }
    if (at.kind == netsim::ReplyKind::kEchoReply) {
      host_hop = 1;  // destination one hop away
      break;
    }
    // Inside the path (TTL exceeded, or a silent router): walk forward.
    for (int ttl = first_ttl + 1; ttl <= first_ttl + kMaxWalk; ++ttl) {
      SingleProbe step =
          SendOne(*simulator_, *memo_, destination, ttl, 1, serial_);
      if (step.kind == netsim::ReplyKind::kEchoReply) {
        host_hop = ttl;
        break;
      }
    }
    if (host_hop == 0) {
      // The host answered the plain echo but not the walk — treat as
      // unresponsive (availability changed mid-measurement).
      result.status = LastHopStatus::kHostUnresponsive;
      result.probes_used = static_cast<int>(serial_ - serial_before);
      return result;
    }
  }
  result.host_hop = host_hop;

  // Step 4: enumerate last-hop interfaces at host_hop - 1.
  if (host_hop <= 1) {
    // Destination is directly connected to the vantage; no last-hop
    // router exists to speak of.
    result.status = LastHopStatus::kLastHopUnresponsive;
    result.probes_used = static_cast<int>(serial_ - serial_before);
    return result;
  }
  HopInterfaces last = EnumerateHopInterfaces(
      *simulator_, *memo_, destination, host_hop - 1, serial_,
      /*max_interfaces_hint=*/16, mda_);
  result.probes_used = static_cast<int>(serial_ - serial_before);
  if (last.interfaces.empty()) {
    result.status = LastHopStatus::kLastHopUnresponsive;
    return result;
  }
  result.status = LastHopStatus::kOk;
  result.last_hops = std::move(last.interfaces);
  return result;
}

}  // namespace hobbit::probing
