// last_hop.h — efficient last-hop router identification (paper §3.4).
//
// Hobbit only needs the *last-hop router* of each destination, so instead
// of tracerouting from TTL 1 it:
//   1. pings the destination and reads the reply TTL;
//   2. infers the host's default TTL (64/128/192/255 buckets) and thereby
//      the hop distance of the last router;
//   3. probes straight at that TTL, halving first_ttl whenever the
//      estimate overshoots (asymmetric reverse paths, nonstandard default
//      TTLs), then walks forward to the destination;
//   4. enumerates the interfaces at the last hop with the MDA stopping
//      rule, to catch per-flow diversity that survives to the final hop.
#pragma once

#include <cstdint>

#include "common/small_vector.h"
#include "netsim/ipv4.h"
#include "netsim/simulator.h"
#include "probing/traceroute.h"

namespace hobbit::probing {

/// A destination's last-hop interface set.  Almost always size 1 (a handful
/// under per-flow diversity at the final hop), so the storage is inline —
/// no heap traffic on the measurement hot path.
using LastHopSet = common::SmallVector<netsim::Ipv4Address, 4>;

enum class LastHopStatus : std::uint8_t {
  kOk,                    ///< at least one last-hop interface identified
  kHostUnresponsive,      ///< the destination never answered the echo
  kLastHopUnresponsive,   ///< destination answers but its last hop is silent
};

struct LastHopResult {
  LastHopStatus status = LastHopStatus::kHostUnresponsive;
  /// Sorted unique last-hop interfaces (non-empty iff status == kOk).
  LastHopSet last_hops;
  /// Hop distance of the destination host (1-based; 0 when unknown).
  int host_hop = 0;
  int probes_used = 0;
};

/// Infers the sender's default TTL from an observed reply TTL, using the
/// paper's bucket rule: <64 -> 64, <128 -> 128, <192 -> 192, else 255.
constexpr int InferDefaultTtl(int reply_ttl) {
  if (reply_ttl < 64) return 64;
  if (reply_ttl < 128) return 128;
  if (reply_ttl < 192) return 192;
  return 255;
}

/// Identifies last-hop routers.  Stateful only in the probe serial counter
/// (so a campaign shares one packet sequence).  Every probe goes through
/// the caller's RouteMemo (single-threaded use; it must outlive the
/// prober), so keep one prober per loop, never one per destination.
class LastHopProber {
 public:
  /// `mda` selects the stopping rule of step 4's interface enumeration
  /// (full MDA by default; MdaMode::kLite for the cheaper 90 % rule).
  LastHopProber(const netsim::Simulator* simulator, netsim::RouteMemo& memo,
                MdaMode mda = MdaMode::kFull)
      : simulator_(simulator), memo_(&memo), mda_(mda) {}

  LastHopResult Probe(netsim::Ipv4Address destination);

  std::uint64_t probes_sent() const { return serial_ - 1; }

 private:
  const netsim::Simulator* simulator_;
  netsim::RouteMemo* memo_;
  MdaMode mda_;
  std::uint64_t serial_ = 1;
};

}  // namespace hobbit::probing
