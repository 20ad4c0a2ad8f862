// prober.h — adaptive measurement of one /24 block (paper §3.3–§3.5).
//
// Destination selection: the snapshot's active addresses, grouped by /26
// and probed round-robin across /26s (order reshuffled each round) so the
// observations represent the whole /24, not one corner of it.
//
// Termination (standard strategy):
//   * a non-hierarchical grouping appears          -> homogeneous, stop;
//   * six destinations probed, all one last hop    -> homogeneous, stop
//     (the 95 % single-next-hop rule of Paris-traceroute MDA);
//   * the confidence table clears 95 % for the current
//     <cardinality, probed> cell                   -> stop; hierarchical
//     groups now mean "different but hierarchical";
//   * active addresses exhausted                   -> not analyzable.
//
// The *reprobe* strategy (§6.5) disables the early stops and keeps probing
// until MdaProbeCount(cardinality) consecutive destinations reveal no new
// last-hop router — maximising the chance of enumerating the complete
// last-hop set at the cost of extra load.
#pragma once

#include <cstdint>

#include "hobbit/confidence.h"
#include "hobbit/types.h"
#include "netsim/rng.h"
#include "netsim/route_memo.h"
#include "netsim/simulator.h"
#include "probing/last_hop.h"
#include "probing/zmap.h"

namespace hobbit::core {

struct ProberOptions {
  /// Minimum usable destinations before a block is analyzable.
  int min_active = 4;
  /// The single-last-hop early-stop threshold.
  int same_last_hop_stop = 6;
  double confidence_level = 0.95;
  /// A confidence cell participates only with at least this many trials
  /// (the paper's 16,588-sample criterion, scaled by the caller).
  std::uint32_t min_cell_trials = 200;
  /// Reprobing mode: no early stops, MDA-style exhaustion of last hops.
  bool reprobe_strategy = false;
  /// Enumerate last-hop interfaces under the MDA-Lite 90 % stopping rule
  /// (probing::MdaLiteProbeCount) instead of full MDA — cheaper per
  /// destination, may miss interfaces of wide hops.  Off by default; the
  /// full-MDA path is the differential reference (bench_scenario sweeps
  /// the accuracy-vs-cost trade-off).
  bool mda_lite = false;
};

/// Probes /24 blocks through a Simulator.  The confidence table may be
/// null (calibration stage), in which case every active address is probed.
class BlockProber {
 public:
  BlockProber(const netsim::Simulator* simulator,
              const ConfidenceTable* table, ProberOptions options)
      : simulator_(simulator), table_(table), options_(options) {}

  /// Measures one /24 given its snapshot scan record.
  BlockResult ProbeBlock(const probing::ZmapBlock& block, netsim::Rng rng);

  /// Exhaustive variant: probes every active address, ignoring all
  /// termination rules.  Used to build calibration datasets.
  FullyProbedBlock ProbeBlockFully(const probing::ZmapBlock& block,
                                   netsim::Rng rng);

  /// Packets this prober has sent, over every block it measured.  The
  /// campaign's load accounting (PipelineStats::probes_sent) is the sum
  /// of this over the per-shard probers.
  std::uint64_t probes_sent() const { return probes_sent_; }

  const ProberOptions& options() const { return options_; }

 private:
  /// The probing loop proper.  Deliberately does NOT touch any probe
  /// accounting: ProbeBlock records `probes_used` and `probes_sent_`
  /// exactly once, after this returns, no matter which termination rule
  /// fired (early returns inside the loop used to duplicate — and one
  /// path skip — the bookkeeping).
  BlockResult ProbeBlockImpl(const probing::ZmapBlock& block,
                             netsim::Rng rng,
                             probing::LastHopProber& prober);

  const netsim::Simulator* simulator_;
  const ConfidenceTable* table_;
  ProberOptions options_;
  /// Per-prober route memo (route_memo.h), used by every probe —
  /// single-owner mutable state, so a prober must not be shared across
  /// threads (the Simulator it probes through may be).  Reused across
  /// blocks: the memo's exactness guarantee makes cross-block reuse safe
  /// and is what amortizes the FIB searches.
  netsim::RouteMemo memo_;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace hobbit::core
