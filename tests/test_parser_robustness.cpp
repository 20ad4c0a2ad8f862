// Parser robustness sweeps: random and mutated inputs must never crash,
// and anything that parses must round-trip.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/blockio.h"
#include "hobbit/resultio.h"
#include "netsim/ipv4.h"
#include "netsim/rng.h"

namespace hobbit {
namespace {

std::string RandomText(netsim::Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "0123456789abcdef.:/,#- \tABCDEFxyz";
  std::size_t length = rng.NextBelow(max_len + 1);
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(
        kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, Ipv4NeverCrashesAndRoundTrips) {
  netsim::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    std::string text = RandomText(rng, 24);
    auto address = netsim::Ipv4Address::Parse(text);
    if (address) {
      auto again = netsim::Ipv4Address::Parse(address->ToString());
      ASSERT_TRUE(again.has_value()) << text;
      EXPECT_EQ(*again, *address) << text;
    }
    auto prefix = netsim::Prefix::Parse(text);
    if (prefix) {
      auto again = netsim::Prefix::Parse(prefix->ToString());
      ASSERT_TRUE(again.has_value()) << text;
      EXPECT_EQ(*again, *prefix) << text;
    }
  }
}

TEST_P(ParserFuzz, BlockReaderNeverCrashes) {
  netsim::Rng rng(GetParam() + 3000);
  for (int i = 0; i < 300; ++i) {
    std::string body = "HobbitBlocks v1\n";
    int lines = static_cast<int>(rng.NextBelow(5));
    for (int l = 0; l < lines; ++l) body += RandomText(rng, 60) + "\n";
    std::istringstream is(body);
    std::string error;
    auto blocks = cluster::ReadBlocks(is, &error);
    if (!blocks) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_P(ParserFuzz, ResultReaderNeverCrashes) {
  netsim::Rng rng(GetParam() + 4000);
  for (int i = 0; i < 300; ++i) {
    std::string body = "HobbitResults v1\n";
    int lines = static_cast<int>(rng.NextBelow(5));
    for (int l = 0; l < lines; ++l) body += RandomText(rng, 80) + "\n";
    std::istringstream is(body);
    std::string error;
    auto records = core::ReadResults(is, &error);
    if (!records) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_P(ParserFuzz, MutatedValidRecordsEitherParseOrFailCleanly) {
  // Start from a valid blocks file and flip random bytes.
  netsim::Rng rng(GetParam() + 5000);
  const std::string valid =
      "HobbitBlocks v1\n"
      "B0 hops=10.0.0.1,10.0.0.2 members=20.0.1.0/24,20.0.9.0/24\n"
      "B1 hops=10.0.0.9 members=99.1.2.0/24\n";
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<char>(32 + rng.NextBelow(95));
    }
    std::istringstream is(mutated);
    auto blocks = cluster::ReadBlocks(is);
    if (blocks) {
      // Whatever parsed must serialize back without crashing.
      std::ostringstream os;
      cluster::WriteBlocks(os, *blocks);
      EXPECT_FALSE(os.str().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hobbit
