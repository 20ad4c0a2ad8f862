#include "analysis/cellular.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "netsim/rdns.h"
#include "netsim/rng.h"
#include "probing/ping.h"

namespace hobbit::analysis {
namespace {

/// Samples up to `want` member /24s of a block, uniformly.
std::vector<netsim::Prefix> SampleMembers(
    const cluster::AggregateBlock& block, std::size_t want,
    netsim::Rng& rng) {
  std::vector<netsim::Prefix> members = block.member_24s;
  if (members.size() <= want) return members;
  for (std::size_t i = 0; i < want; ++i) {
    std::size_t j = i + rng.NextBelow(members.size() - i);
    std::swap(members[i], members[j]);
  }
  members.resize(want);
  return members;
}

}  // namespace

std::vector<double> FirstRttDeltas(const netsim::Internet& internet,
                                   netsim::RouteMemo& memo,
                                   const cluster::AggregateBlock& block,
                                   int sample_24s, int pings_per_address,
                                   std::uint64_t seed) {
  netsim::Rng rng(seed);
  probing::Pinger pinger(internet.simulator.get(), memo);
  std::vector<double> deltas;
  for (const netsim::Prefix& slash24 :
       SampleMembers(block, static_cast<std::size_t>(sample_24s), rng)) {
    for (std::uint32_t a = slash24.base().value();
         a <= slash24.Last().value(); ++a) {
      netsim::Ipv4Address address(a);
      std::vector<probing::EchoResult> train =
          pinger.PingTrain(address, pings_per_address);
      if (train.size() < 2) continue;  // unresponsive or nearly so
      double rest_max = 0.0;
      for (std::size_t i = 1; i < train.size(); ++i) {
        rest_max = std::max(rest_max, train[i].rtt_ms);
      }
      deltas.push_back((train.front().rtt_ms - rest_max) / 1000.0);
    }
  }
  return deltas;
}

std::string GeneralizeName(const std::string& name) {
  std::string pattern;
  pattern.reserve(name.size());
  bool in_digits = false;
  for (char c : name) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) pattern.push_back('#');
      in_digits = true;
    } else {
      pattern.push_back(c);
      in_digits = false;
    }
  }
  return pattern;
}

bool NameMatchesPattern(const std::string& pattern,
                        const std::string& name) {
  return GeneralizeName(name) == pattern;
}

PatternExtraction ExtractDominantPattern(
    const std::vector<std::string>& names) {
  PatternExtraction out;
  out.names_seen = names.size();
  std::map<std::string, std::size_t> counts;
  for (const std::string& name : names) ++counts[GeneralizeName(name)];
  out.distinct_patterns = counts.size();
  std::size_t best = 0;
  for (const auto& [pattern, count] : counts) {
    if (count > best) {
      best = count;
      out.dominant_pattern = pattern;
    }
  }
  if (!names.empty()) {
    out.coverage = static_cast<double>(best) / names.size();
  }
  return out;
}

std::vector<std::string> CollectRdnsNames(
    const netsim::Internet& internet, const cluster::AggregateBlock& block,
    std::size_t max_names, std::uint64_t seed) {
  netsim::Rng rng(seed);
  const netsim::HostModel& hosts = internet.simulator->host_model();
  std::vector<std::string> names;
  for (const netsim::Prefix& slash24 : block.member_24s) {
    if (names.size() >= max_names) break;
    netsim::SubnetId subnet_id =
        internet.topology.FindSubnet(slash24.base());
    if (subnet_id == netsim::kNoSubnet) continue;
    const netsim::Subnet& subnet = internet.topology.subnet(subnet_id);
    for (std::uint32_t a = slash24.base().value();
         a <= slash24.Last().value() && names.size() < max_names; ++a) {
      netsim::Ipv4Address address(a);
      if (!hosts.ActiveInSnapshot(address, subnet)) continue;
      if (!rng.NextBool(0.5)) continue;  // spread samples across /24s
      auto name = netsim::RdnsName(subnet.rdns_scheme, address);
      if (name) names.push_back(std::move(*name));
    }
  }
  return names;
}

}  // namespace hobbit::analysis
