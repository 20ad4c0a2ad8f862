// simulator.h — the packet-level probe engine.
//
// `Simulator` answers the one question every measurement tool asks: "if I
// send this probe, what comes back?"  It walks the router graph hop by hop,
// resolving each ECMP choice with the group's load-balancing policy, and
// synthesises ICMP echo replies, time-exceeded messages or silence.
//
// The walk is purely deterministic in (topology, seed, probe header), which
// is what makes per-destination load balancing *look* like path diversity
// to the tools above: re-sending the same header always takes the same
// path, while changing the destination (or, for per-flow groups, the flow
// identifier) may not.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/artifacts.h"
#include "netsim/host_model.h"
#include "netsim/ipv4.h"
#include "netsim/outage.h"
#include "netsim/rng.h"
#include "netsim/route_memo.h"
#include "netsim/rtt_model.h"
#include "netsim/topology.h"

namespace hobbit::netsim {

/// A probe as the measurement tools describe it.  `flow_id` stands for the
/// header fields Paris-traceroute varies (ports/checksum); `serial` is a
/// global packet counter used for per-packet balancing and rate limiting;
/// `train_sequence`/`train_id` describe ping trains for the RTT model.
struct ProbeSpec {
  Ipv4Address destination;
  int ttl = 64;
  std::uint16_t flow_id = 0;
  std::uint64_t serial = 0;
  std::uint32_t train_sequence = 0;
  std::uint32_t train_id = 0;
};

enum class ReplyKind : std::uint8_t {
  kEchoReply,     ///< destination answered
  kTtlExceeded,   ///< router at the expiring hop answered
  kTimeout,       ///< nothing came back
};

struct ProbeReply {
  ReplyKind kind = ReplyKind::kTimeout;
  /// Responder: destination for echo replies, router reply address for
  /// TTL-exceeded.  Unset for timeouts.
  Ipv4Address responder;
  /// TTL field of the reply as observed at the source (echo replies only;
  /// this is what Hobbit's hop-count inference reads).
  int reply_ttl = 0;
  double rtt_ms = 0.0;
  /// Forward hop index (1-based) at which the reply was generated.
  int hop = 0;
};

/// Per-simulator knobs.
struct SimulatorConfig {
  std::uint64_t seed = 1;
  /// Maximum forward path length before the walk is declared broken.
  int max_hops = 64;
  /// Fraction of destinations whose reverse path is longer than the
  /// forward one (hop-count asymmetry defeats naive TTL inference and
  /// exercises Hobbit's first_ttl halving loop).
  double p_reverse_asymmetry = 0.08;
  int max_reverse_extra_hops = 3;
};

/// Deterministic hop-by-hop forwarding over a sealed Topology.
class Simulator {
 public:
  /// The topology must outlive the simulator and must be sealed.
  Simulator(const Topology* topology, RouterId source_router,
            Ipv4Address source_address, HostModel host_model,
            RttModel rtt_model, SimulatorConfig config);

  /// Sends one probe and returns what the source observes.  Every hop is
  /// served from the router's hop row in `memo` (see route_memo.h), which
  /// must be owned by the calling thread — the simulator itself stays
  /// const and writes no shared state, not even a packet counter:
  /// measurement load is counted by the callers that own the probes
  /// (per-prober BlockProber::probes_sent, summed per shard into
  /// core::PipelineStats::probes_sent).
  ProbeReply Send(const ProbeSpec& probe, RouteMemo& memo) const;

  /// The forward router path the given header would take, ending with the
  /// last-hop router.  Empty when the destination is not routable.  This
  /// is ground truth for tests and benches, walked through `memo` like
  /// Send — measurement tools must not call it.
  std::vector<RouterId> ResolvePath(Ipv4Address destination,
                                    std::uint16_t flow_id,
                                    std::uint64_t serial,
                                    RouteMemo& memo) const;

  /// Picks the next hop from an ECMP group at `router` for the header:
  /// the one definition of each balancer policy's pick.  Hop rows fold
  /// it (route_memo.h); the test oracle calls it hop by hop.
  RouterId PickNextHop(RouterId router, const EcmpGroup& group,
                       Ipv4Address dst, std::uint16_t flow_id,
                       std::uint64_t serial) const;

  const Topology& topology() const { return *topology_; }

  /// Re-points the simulator at a relocated topology (used by Internet's
  /// move operations; the topology contents must be identical).
  void RebindTopology(const Topology* topology) { topology_ = topology; }

  /// Installs (or clears, with nullptr) an outage overlay: hosts under a
  /// downed prefix stop answering echo probes.  The overlay must outlive
  /// its installation.
  void SetOutageOverlay(const OutageOverlay* overlay) { outage_ = overlay; }

  /// Installs (or clears, with nullptr) a measurement-artifact hook:
  /// every Send reply is routed through ReplyArtifacts::Rewrite before
  /// the caller sees it (see artifacts.h for the determinism contract).
  /// The hook must outlive its installation; install/clear only while no
  /// probe is in flight.
  void SetReplyArtifacts(const ReplyArtifacts* artifacts) {
    artifacts_ = artifacts;
  }
  const ReplyArtifacts* reply_artifacts() const { return artifacts_; }

  const HostModel& host_model() const { return host_model_; }
  const RttModel& rtt_model() const { return rtt_model_; }
  Ipv4Address source_address() const { return source_address_; }
  RouterId source_router() const { return source_router_; }
  int max_hops() const { return config_.max_hops; }

 private:
  /// A router on the walk and its hop row.
  struct HopAt {
    RouterId router = kNoRouter;
    RouteMemo::HopRow* row = nullptr;
  };

  /// Fills `row` with the forwarding facts of `router` for `dst` (see
  /// route_memo.h): the decisions PickNextHop makes, with every hash
  /// input except the probe's own fields folded.
  void DecodeRow(RouterId router, Ipv4Address dst, const Subnet& subnet,
                 RouteMemo::HopRow& row) const;

  /// Allocation-free forward walk used by Send and ResolvePath, every hop
  /// served from the router's hop row: returns the path length (routers
  /// traversed, 0 when unroutable) and, when `want_hop` lies on the path,
  /// stores the router at that 1-based hop and its row in `*at_hop`.
  /// `full_path`, when given, collects every hop (cleared when the
  /// destination is unroutable).
  int WalkForward(Ipv4Address destination, std::uint16_t flow_id,
                  std::uint64_t serial, RouteMemo& memo, int want_hop,
                  HopAt* at_hop,
                  std::vector<RouterId>* full_path = nullptr) const;

  /// Send minus the artifact hook: computes the clean reply and reports
  /// the walk's path length (0 = unroutable) for the hook's
  /// ArtifactContext.  Every return path of Send funnels through exactly
  /// one Rewrite application in Send itself.
  ProbeReply SendImpl(const ProbeSpec& probe, RouteMemo& memo,
                      int* path_length_out) const;

  /// Whether the router at `at` answers a TTL-exceeded probe toward
  /// `destination`; memoized in its row.
  bool RouterResponds(const HopAt& at, Ipv4Address destination) const;
  bool DrawResponds(RouterId router, Ipv4Address destination) const;

  int ReverseHops(Ipv4Address destination, int forward_hops) const;

  const Topology* topology_;
  RouterId source_router_;
  Ipv4Address source_address_;
  HostModel host_model_;
  RttModel rtt_model_;
  SimulatorConfig config_;
  // StableHash({config_.seed, ...}) pre-folded through its first part;
  // every forwarding-time hash starts from this state (see StableHashFrom).
  std::uint64_t seed_hash_state_;
  const OutageOverlay* outage_ = nullptr;
  const ReplyArtifacts* artifacts_ = nullptr;
};

}  // namespace hobbit::netsim
