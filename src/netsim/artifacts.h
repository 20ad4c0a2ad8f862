// artifacts.h — the measurement-artifact hook on the probe path.
//
// Real traceroute campaigns never see the clean replies the Simulator
// synthesises: probes get dropped, rate-limited routers go silent for
// whole episodes, forwarding loops answer from the wrong place.  The
// scenario subsystem (src/scenario) models those pathologies as a
// *decorator over replies* rather than a fork of the forwarding walk:
// `Simulator::Send` computes the clean reply as always and then hands it
// — together with the probe and a little walk context — to an installed
// `ReplyArtifacts` implementation, which may rewrite it in place.
//
// Contract:
//   * Rewrite is const and must be thread-safe: Send is called from many
//     measurement threads at once.  Implementations must be pure
//     functions of (their own config/seed, probe, context, clean reply)
//     — typically via netsim's StableHash — so campaigns stay
//     deterministic and thread-count invariant.
//   * A zero-intensity implementation must leave the reply untouched;
//     the scenario differential tests pin installed-but-idle hooks to
//     bit-identical pipeline output.
//   * The hook only sees measurement probes (Send).  The ground-truth
//     path (ResolvePath) and the zmap snapshot (which reads the
//     HostModel directly) stay artifact-free.
#pragma once

namespace hobbit::netsim {

struct ProbeSpec;
struct ProbeReply;

/// Walk facts the rewrite may condition on but cannot learn from the
/// reply alone (a timeout carries no addresses).
struct ArtifactContext {
  /// Forward routers traversed toward the destination; 0 when the
  /// destination is unroutable (such timeouts are usually left alone —
  /// there was no path to perturb).
  int path_length = 0;
};

/// Installed via Simulator::SetReplyArtifacts; see the file comment for
/// the thread-safety and determinism contract.
class ReplyArtifacts {
 public:
  virtual ~ReplyArtifacts() = default;

  /// May rewrite `reply` in place (e.g. to a timeout, or to a
  /// TTL-exceeded from a synthetic loop router).
  virtual void Rewrite(const ProbeSpec& probe, const ArtifactContext& context,
                       ProbeReply& reply) const = 0;
};

}  // namespace hobbit::netsim
