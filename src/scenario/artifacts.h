// artifacts.h — deterministic measurement-artifact injectors.
//
// The classic traceroute pathologies of Viger et al. ("Detection,
// Understanding, and Prevention of Traceroute Measurement Artifacts"),
// modelled so Hobbit's classifier can be stress-tested against them:
//
//   * probe loss           — any reply deterministically dropped with
//                            probability p per packet;
//   * rate-limit silence   — TTL-exceeded replies suppressed per
//                            (router, destination) episode, turning the
//                            hop into an anonymous "*" for that whole
//                            enumeration (mirrors the simulator's bursty
//                            RouterResponds model);
//   * forwarding loops     — selected destinations answer from a
//                            synthetic loop of cycling router addresses
//                            past a per-destination onset hop, so
//                            probing above the onset sees the cycle
//                            instead of the true path suffix;
//   * false links          — not a reply rewrite at all: flipping ECMP
//                            groups to kPerPacket (see
//                            ReconfigureLoadBalancers below) makes
//                            successive probes of one flow cross
//                            different physical paths, the canonical
//                            false-link generator;
//   * route churn          — InjectRouteChurn (generalized out of
//                            src/stream) rotates next-hop preference
//                            like a reroute.
//
// Reply-side artifacts are a netsim::ReplyArtifacts decorator: pure
// stable-hash functions of (seed, probe, clean reply), so campaigns stay
// bit-identical across thread counts and across the batch/stream
// drivers.  Zero intensities leave every reply untouched.  Topology-side
// artifacts are mutators that go through the mutable accessors and so
// bump Topology::mutation_epoch(), keeping RouteMemo caches correct.
#pragma once

#include <atomic>
#include <cstdint>

#include "netsim/artifacts.h"
#include "netsim/rng.h"
#include "netsim/simulator.h"
#include "netsim/topology.h"

namespace hobbit::scenario {

/// Intensities of the reply-side injectors.  All default to zero =
/// artifact-free; an ArtifactInjector with this config is a no-op.
struct ArtifactConfig {
  std::uint64_t seed = 1;
  /// Per-packet probe loss: any non-timeout reply becomes a timeout.
  double p_probe_loss = 0.0;
  /// Per-(router, destination) rate-limit episode: the router's
  /// TTL-exceeded replies toward that destination all vanish, leaving an
  /// anonymous hop.
  double p_rate_limit = 0.0;
  /// Per-destination forwarding loop: replies past the onset hop come
  /// from a cycle of synthetic loop routers instead of the true path.
  double p_loop = 0.0;
  /// Loop onset hop is drawn deterministically from [min, max].
  int loop_onset_min = 3;
  int loop_onset_max = 8;
};

constexpr bool AnyArtifacts(const ArtifactConfig& config) {
  return config.p_probe_loss > 0.0 || config.p_rate_limit > 0.0 ||
         config.p_loop > 0.0;
}

/// Relaxed-atomic tallies of what the injector actually did — the
/// "did it fire" visibility for tests and bench_scenario.
struct InjectorCounters {
  std::uint64_t probe_losses = 0;
  std::uint64_t rate_limit_silences = 0;
  std::uint64_t loop_rewrites = 0;

  std::uint64_t total() const {
    return probe_losses + rate_limit_silences + loop_rewrites;
  }
};

/// The reply-side decorator.  Install with Simulator::SetReplyArtifacts;
/// Rewrite is thread-safe (counters are relaxed atomics, everything else
/// is immutable after construction).
class ArtifactInjector final : public netsim::ReplyArtifacts {
 public:
  explicit ArtifactInjector(const ArtifactConfig& config);

  void Rewrite(const netsim::ProbeSpec& probe,
               const netsim::ArtifactContext& context,
               netsim::ProbeReply& reply) const override;

  const ArtifactConfig& config() const { return config_; }
  InjectorCounters counters() const;

 private:
  ArtifactConfig config_;
  // StableHash({seed, ...}) pre-folded through the seed, like the
  // simulator's own seed_hash_state_.
  std::uint64_t seed_hash_state_;
  mutable std::atomic<std::uint64_t> probe_losses_{0};
  mutable std::atomic<std::uint64_t> rate_limit_silences_{0};
  mutable std::atomic<std::uint64_t> loop_rewrites_{0};
};

/// Route churn: rotates the next-hop order of up to `flips` randomly
/// chosen multi-path FIB entries (a new preferred path, as after a
/// reroute), bumping Topology::mutation_epoch via the mutable accessors.
/// Returns how many entries were actually flipped (0 when the topology
/// has no ECMP entries).  Moved here from src/stream; stream re-exports
/// it for its existing callers.
std::size_t InjectRouteChurn(netsim::Topology& topology, netsim::Rng& rng,
                             std::size_t flips = 4);

/// Load-balancer reconfiguration: switches up to `groups` randomly
/// chosen multi-next-hop ECMP groups to `policy`.  With kPerPacket (the
/// default) this is the false-link generator — per-flow probe sequences
/// stop pinning a single path.  Bumps mutation_epoch, and a RouteMemo
/// row for a per-packet group still hashes each probe's serial, so
/// memoized campaigns stay exact.  Returns the number of groups actually
/// switched.
std::size_t ReconfigureLoadBalancers(
    netsim::Topology& topology, netsim::Rng& rng, std::size_t groups,
    netsim::LbPolicy policy = netsim::LbPolicy::kPerPacket);

}  // namespace hobbit::scenario
