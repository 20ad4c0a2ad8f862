#include "netsim/rdns.h"

#include <array>
#include <initializer_list>
#include <string_view>

#include "netsim/rng.h"

namespace hobbit::netsim {
namespace {

std::string Dashed(Ipv4Address a) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('-');
    out += std::to_string(a.Octet(i));
  }
  return out;
}

/// `parts` concatenated into one string.
std::string Join(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out += part;
  return out;
}

// Time-Warner grid: regions × service classes, in the spirit of the
// published rr.com reverse-DNS scheme list.
constexpr std::array<const char*, 9> kTwcRegions = {
    "nyc",  "austin", "socal", "carolina", "neo",
    "kc",   "hawaii", "maine", "rochester"};
constexpr std::array<const char*, 4> kTwcClasses = {"res", "biz", "wifi",
                                                    "static"};

struct TwcParts {
  const char* region;
  const char* service;
};

TwcParts TwcPartsOf(std::uint32_t scheme) {
  std::uint32_t index = (scheme - kRdnsTwcBase) % kTwcPatternCount;
  return {kTwcRegions[index % kTwcRegions.size()],
          kTwcClasses[(index / kTwcRegions.size()) % kTwcClasses.size()]};
}

}  // namespace

std::optional<std::string> RdnsName(std::uint32_t scheme,
                                    Ipv4Address address) {
  switch (scheme) {
    case kRdnsNone:
      return std::nullopt;
    case kRdnsGenericIsp:
      return Join({"host-", Dashed(address), ".example-isp.net"});
    case kRdnsTele2Cellular: {
      // "m" + digit(s) + per-host suffix, under cust.tele2.net.
      std::uint64_t h = StableHash({address.value(), 0x7E1E2ULL});
      return Join({"m", std::to_string(1 + h % 9), "-", Dashed(address),
                   ".cust.tele2.net"});
    }
    case kRdnsOcnCellular: {
      std::uint64_t h = StableHash({address.value(), 0x0C4ULL});
      return Join({"p", Dashed(address), ".omed", std::to_string(1 + h % 20),
                   ".ocn.ne.jp"});
    }
    case kRdnsVerizonCellular:
      return Join({Dashed(address), ".pools.vzwnet.com"});
    case kRdnsAmazonEc2Tokyo:
      return Join({"ec2-", Dashed(address),
                   ".ap-northeast-1.compute.amazonaws.com"});
    case kRdnsAmazonEc2UsWest:
      return Join(
          {"ec2-", Dashed(address), ".us-west-1.compute.amazonaws.com"});
    case kRdnsAmazonEc2Dublin:
      return Join(
          {"ec2-", Dashed(address), ".eu-west-1.compute.amazonaws.com"});
    case kRdnsCoxBusiness:
      return Join({"wsip-", Dashed(address), ".ph.ph.cox.net"});
    case kRdnsCoxResidential:
      return Join({"ip", Dashed(address), ".ph.ph.cox.net"});
    case kRdnsGenericHosting:
      return Join({"server-", Dashed(address), ".fasthost.example"});
    case kRdnsRouterInfra: {
      std::uint64_t h = StableHash({address.value(), 0x40075ULL});
      return Join({"ae-", std::to_string(h % 16), "-", Dashed(address),
                   ".core.backbone.example"});
    }
    case kRdnsBitcoinHost:
      return Join({"ip", Dashed(address), ".ph.ph.cox.net"});
    default:
      break;
  }
  if (scheme >= kRdnsTwcBase &&
      scheme < kRdnsTwcBase + kTwcPatternCount) {
    TwcParts parts = TwcPartsOf(scheme);
    return Join({"cpe-", Dashed(address), ".", parts.region, ".", parts.service,
                 ".rr.com"});
  }
  return std::nullopt;
}

std::optional<std::string> RdnsPattern(std::uint32_t scheme) {
  switch (scheme) {
    case kRdnsNone:
      return std::nullopt;
    case kRdnsGenericIsp:
      return "^host-.*\\.example-isp\\.net";
    case kRdnsTele2Cellular:
      return "^m[0-9].+\\.cust\\.tele2";
    case kRdnsOcnCellular:
      return "^p.*\\.omed[0-9]+\\.ocn\\.ne\\.jp";
    case kRdnsVerizonCellular:
      return "^.*\\.pools\\.vzwnet\\.com";
    case kRdnsAmazonEc2Tokyo:
      return "^ec2-.*\\.ap-northeast-1\\.compute\\.amazonaws\\.com";
    case kRdnsAmazonEc2UsWest:
      return "^ec2-.*\\.us-west-1\\.compute\\.amazonaws\\.com";
    case kRdnsAmazonEc2Dublin:
      return "^ec2-.*\\.eu-west-1\\.compute\\.amazonaws\\.com";
    case kRdnsCoxBusiness:
      return "^wsip-.*\\.cox\\.net";
    case kRdnsCoxResidential:
      return "^ip.*\\.cox\\.net";
    case kRdnsGenericHosting:
      return "^server-.*\\.fasthost\\.example";
    case kRdnsRouterInfra:
      return "^ae-.*\\.core\\.backbone\\.example";
    case kRdnsBitcoinHost:
      return "^ip.*\\.cox\\.net";
    default:
      break;
  }
  if (scheme >= kRdnsTwcBase &&
      scheme < kRdnsTwcBase + kTwcPatternCount) {
    TwcParts parts = TwcPartsOf(scheme);
    return std::string("^cpe-.*\\.") + parts.region + "\\." + parts.service +
           "\\.rr\\.com";
  }
  return std::nullopt;
}

bool MatchesTele2CellularRule(const std::string& name) {
  // ^m[0-9].+\.cust\.tele2 — hand-rolled to avoid <regex> in a hot loop.
  if (name.size() < 3 || name[0] != 'm' || name[1] < '0' || name[1] > '9') {
    return false;
  }
  return name.find(".cust.tele2") != std::string::npos;
}

bool MatchesOcnCellularRule(const std::string& name) {
  return name.find("omed") != std::string::npos;
}

}  // namespace hobbit::netsim
