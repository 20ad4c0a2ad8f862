// cellular.h — identifying cellular address blocks (paper §5.2 Fig 6 and
// §7.2).
//
// Two independent signals:
//  * timing — cellular radios sleep, so the first probe of a ping train
//    pays a wake-up delay the rest do not (Padmanabhan et al.): the
//    distribution of (first RTT − max of the rest) separates cellular
//    blocks from datacenter blocks;
//  * naming — cellular pools carry distinctive reverse-DNS schemes; a
//    dominant pattern generalised from a known-cellular block becomes a
//    classifier for cellular addresses elsewhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/aggregate.h"
#include "netsim/internet.h"

namespace hobbit::analysis {

/// Sends ping trains into a block and returns, per responsive address,
/// first RTT minus the maximum of the remaining RTTs, in **seconds**
/// (Fig 6's x axis).  Samples `sample_24s` member /24s.  Pings through
/// the caller's `memo` (one per loop over blocks).
std::vector<double> FirstRttDeltas(const netsim::Internet& internet,
                                   netsim::RouteMemo& memo,
                                   const cluster::AggregateBlock& block,
                                   int sample_24s, int pings_per_address,
                                   std::uint64_t seed);

/// Generalises a set of reverse-DNS names into a pattern by collapsing
/// every maximal digit run into '#'.  ("m3-10-0-0-1.cust.tele2.net" ->
/// "m#-#-#-#-#.cust.tele2.net".)
std::string GeneralizeName(const std::string& name);

/// True when `name` matches `pattern` under the digit-run wildcard rules
/// of GeneralizeName: '#' consumes one maximal digit run.
bool NameMatchesPattern(const std::string& pattern, const std::string& name);

struct PatternExtraction {
  std::string dominant_pattern;
  /// Fraction of names the dominant pattern covers.
  double coverage = 0.0;
  std::size_t names_seen = 0;
  std::size_t distinct_patterns = 0;
};

/// Extracts the dominant generalized pattern from names.
PatternExtraction ExtractDominantPattern(
    const std::vector<std::string>& names);

/// Collects the reverse-DNS names of up to `max_names` snapshot-active
/// addresses of a block (addresses without PTR records are skipped).
std::vector<std::string> CollectRdnsNames(
    const netsim::Internet& internet, const cluster::AggregateBlock& block,
    std::size_t max_names, std::uint64_t seed);

}  // namespace hobbit::analysis
