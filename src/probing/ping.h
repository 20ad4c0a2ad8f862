// ping.h — ICMP echo probing.
//
// Thin client over the simulator: single echos (for liveness and TTL
// readback) and ping trains (for the cellular first-RTT experiment,
// Fig 6).  All probing tools in this library observe the network only
// through `Simulator::Send` — never through ground truth — and send
// through a RouteMemo their caller owns (one per loop, see route_memo.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/simulator.h"

namespace hobbit::probing {

/// What one answered echo looks like at the source.
struct EchoResult {
  double rtt_ms = 0.0;
  /// TTL field of the reply — the input to default-TTL inference.
  int reply_ttl = 0;
};

/// Stateful pinger; owns the probe serial counter shared by a measurement
/// campaign so per-packet load balancing and rate limiting see a global
/// packet sequence.  Sends through the caller's `memo`, which must
/// outlive the pinger.
class Pinger {
 public:
  Pinger(const netsim::Simulator* simulator, netsim::RouteMemo& memo)
      : simulator_(simulator), memo_(&memo) {}

  /// One echo request.  nullopt == timeout.
  std::optional<EchoResult> Ping(netsim::Ipv4Address destination) {
    netsim::ProbeSpec probe;
    probe.destination = destination;
    probe.ttl = 64;
    probe.flow_id = 0;
    probe.serial = next_serial_++;
    probe.train_sequence = 0;
    probe.train_id = static_cast<std::uint32_t>(next_train_++);
    netsim::ProbeReply reply = simulator_->Send(probe, *memo_);
    if (reply.kind != netsim::ReplyKind::kEchoReply) return std::nullopt;
    return EchoResult{reply.rtt_ms, reply.reply_ttl};
  }

  /// A back-to-back train of `count` echos; unanswered probes yield no
  /// entry (so the result may be shorter than `count`).  Used by the
  /// cellular-delay analysis: the first probe of a train is the one that
  /// pays the radio wake-up.
  std::vector<EchoResult> PingTrain(netsim::Ipv4Address destination,
                                    int count) {
    std::vector<EchoResult> out;
    auto train = static_cast<std::uint32_t>(next_train_++);
    for (int i = 0; i < count; ++i) {
      netsim::ProbeSpec probe;
      probe.destination = destination;
      probe.ttl = 64;
      probe.serial = next_serial_++;
      probe.train_sequence = static_cast<std::uint32_t>(i);
      probe.train_id = train;
      netsim::ProbeReply reply = simulator_->Send(probe, *memo_);
      if (reply.kind == netsim::ReplyKind::kEchoReply) {
        out.push_back({reply.rtt_ms, reply.reply_ttl});
      }
    }
    return out;
  }

  std::uint64_t next_serial() { return next_serial_++; }

 private:
  const netsim::Simulator* simulator_;
  netsim::RouteMemo* memo_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t next_train_ = 1;
};

}  // namespace hobbit::probing
