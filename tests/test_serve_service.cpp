// LineService protocol conformance, driven entirely through streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "serve/service.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using test::Pfx;

std::vector<std::byte> SampleSnapshotBytes(std::uint64_t epoch) {
  cluster::AggregateBlock a;
  a.member_24s = {Pfx("20.0.1.0/24"), Pfx("20.0.9.0/24")};
  a.last_hops = {Addr("10.0.0.1"), Addr("10.0.0.2")};
  cluster::AggregateBlock b;
  b.member_24s = {Pfx("99.1.2.0/24")};
  b.last_hops = {Addr("10.0.0.9")};
  std::vector<ClassifiedPrefix> classified = {
      {Pfx("20.0.1.0/24"),
       static_cast<std::uint8_t>(core::Classification::kSameLastHop)}};
  return CompileSnapshotV2(std::vector<cluster::AggregateBlock>{a, b},
                         classified, epoch);
}

std::string WriteTemp(const std::string& name,
                      const std::vector<std::byte>& bytes) {
  std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(WriteSnapshotFile(path, bytes));
  return path;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : service_(&store_, &metrics_, nullptr) {
    std::string error;
    auto snapshot = Snapshot::FromBuffer(SampleSnapshotBytes(5), &error);
    EXPECT_TRUE(snapshot.has_value()) << error;
    store_.Swap(std::make_shared<const Snapshot>(*std::move(snapshot)));
  }

  /// Feeds a whole session; returns stdout.
  std::string Session(const std::string& input) {
    std::istringstream in(input);
    std::ostringstream out;
    service_.Run(in, out);
    return out.str();
  }

  SnapshotStore store_;
  ServeMetrics metrics_;
  LineService service_;
};

TEST_F(ServiceTest, LookupHitByAddressAndPrefix) {
  EXPECT_EQ(Session("LOOKUP 20.0.1.77\n"),
            "HIT 20.0.1.0/24 block=0 class=same-last-hop members=2 "
            "hops=2\n");
  EXPECT_EQ(Session("LOOKUP 99.1.2.0/24\n"),
            "HIT 99.1.2.0/24 block=1 class=- members=1 hops=1\n");
  EXPECT_EQ(metrics_.hits.load(), 2u);
}

TEST_F(ServiceTest, LookupMissAndCover) {
  EXPECT_EQ(Session("LOOKUP 8.8.8.8\n"), "MISS 8.8.8.8\n");
  EXPECT_EQ(Session("LOOKUP 20.0.0.0/16\n"),
            "COVER 20.0.0.0/16 entries=2 blocks=1\n");
  EXPECT_EQ(metrics_.misses.load(), 1u);
  EXPECT_EQ(metrics_.covering_queries.load(), 1u);
}

TEST_F(ServiceTest, LookupRejectsGarbage) {
  EXPECT_EQ(Session("LOOKUP definitely-not-an-ip\n"),
            "ERR bad query: definitely-not-an-ip\n");
  // A /26 is neither an exact /24 nor a covering (shorter) prefix.
  EXPECT_EQ(Session("LOOKUP 20.0.1.0/26\n"),
            "ERR bad query: 20.0.1.0/26\n");
}

TEST_F(ServiceTest, BatchKeepsInputOrderAndCountsEachQuery) {
  std::string out = Session(
      "BATCH 3\n"
      "20.0.9.3\n"
      "8.8.8.0/24\n"
      "garbage\n");
  EXPECT_EQ(out,
            "HIT 20.0.9.0/24 block=0 class=- members=2 hops=2\n"
            "MISS 8.8.8.0/24\n"
            "ERR bad query: garbage\n"
            "OK 3\n");
  EXPECT_EQ(metrics_.batches.load(), 1u);
  EXPECT_EQ(metrics_.lookups.load(), 2u);  // the garbage line is not a lookup
}

TEST_F(ServiceTest, BatchRejectsBadAndTruncatedInput) {
  EXPECT_EQ(Session("BATCH many\n"), "ERR bad batch size: many\n");
  EXPECT_EQ(Session("BATCH 3\n20.0.1.1\n"),
            "ERR batch truncated at query 1\n");
}

// The BATCH size is plain decimal: no sign, no trailing characters.  A
// malformed size is a one-line error and the lines after it are commands.
TEST_F(ServiceTest, BatchSizeGrammarIsDigitsOnly) {
  EXPECT_EQ(Session("BATCH 3abc\nLOOKUP 8.8.8.8\n"),
            "ERR bad batch size: 3abc\nMISS 8.8.8.8\n");
  EXPECT_EQ(Session("BATCH +3\n"), "ERR bad batch size: +3\n");
  EXPECT_EQ(Session("BATCH -1\n"), "ERR bad batch size: -1\n");
  EXPECT_EQ(Session("BATCH 3 \n"), "ERR bad batch size: 3 \n");
  EXPECT_EQ(Session("BATCH 0\n"), "OK 0\n");
  // kMaxBatch itself is accepted (and then waits for its query lines).
  EXPECT_EQ(Session("BATCH 1048576\n"), "ERR batch truncated at query 0\n");
  EXPECT_EQ(Session("BATCH 1048577\n"), "ERR batch too large: 1048577\n");
  EXPECT_EQ(Session("BATCH 99999999999999999999999\n"),
            "ERR batch too large: 99999999999999999999999\n");

  std::size_t count = 7;
  EXPECT_EQ(ParseBatchSize("", &count), BatchSizeParse::kBadSyntax);
  EXPECT_EQ(ParseBatchSize("3abc", &count), BatchSizeParse::kBadSyntax);
  EXPECT_EQ(ParseBatchSize("+3", &count), BatchSizeParse::kBadSyntax);
  EXPECT_EQ(ParseBatchSize("-1", &count), BatchSizeParse::kBadSyntax);
  EXPECT_EQ(ParseBatchSize("1048577", &count), BatchSizeParse::kTooLarge);
  EXPECT_EQ(count, 7u);  // untouched unless kOk
  ASSERT_EQ(ParseBatchSize("1048576", &count), BatchSizeParse::kOk);
  EXPECT_EQ(count, kMaxBatch);
  ASSERT_EQ(ParseBatchSize("0", &count), BatchSizeParse::kOk);
  EXPECT_EQ(count, 0u);
}

TEST_F(ServiceTest, ReloadSwapsGenerationsAndSurvivesBadFiles) {
  std::string good = WriteTemp("service_reload.snap",
                               SampleSnapshotBytes(9));
  std::string out = Session("RELOAD " + good + "\nSTATS\n");
  EXPECT_NE(out.find("OK generation=2 entries=3 blocks=2 epoch=9"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("reloads=1"), std::string::npos) << out;

  // A corrupt file must not disturb the serving snapshot.
  auto corrupt = SampleSnapshotBytes(10);
  corrupt[60] ^= std::byte{0xFF};
  std::string bad = WriteTemp("service_corrupt.snap", corrupt);
  out = Session("RELOAD " + bad + "\nLOOKUP 20.0.1.1\n");
  EXPECT_NE(out.find("ERR reload failed:"), std::string::npos) << out;
  EXPECT_NE(out.find("HIT 20.0.1.0/24"), std::string::npos) << out;
  EXPECT_EQ(store_.Current()->epoch(), 9u);
  EXPECT_EQ(metrics_.failed_reloads.load(), 1u);

  EXPECT_EQ(Session("RELOAD\n"), "ERR reload needs a path\n");
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST_F(ServiceTest, StatsReportsCountersAndLatency) {
  Session("LOOKUP 20.0.1.1\nLOOKUP 8.8.8.8\n");
  std::string out = Session("STATS\n");
  EXPECT_NE(out.find("lookups=2 hits=1 misses=1"), std::string::npos)
      << out;
  EXPECT_NE(out.find("generation=1 epoch=5"), std::string::npos) << out;
  EXPECT_NE(out.find("latency_ns p50="), std::string::npos) << out;
  // Two LOOKUPs recorded before this STATS line.
  EXPECT_NE(out.find("samples=2"), std::string::npos) << out;
}

TEST_F(ServiceTest, UnknownCommandsCommentsAndQuit) {
  EXPECT_EQ(Session("FROB x\n"), "ERR unknown command: FROB\n");
  EXPECT_EQ(Session("# comment\n\n"), "");
  // QUIT stops the session: the trailing LOOKUP is never served.
  EXPECT_EQ(Session("QUIT\nLOOKUP 20.0.1.1\n"), "BYE\n");
}

TEST(ServiceEmptyStore, QueriesFailCleanlyUntilFirstReload) {
  SnapshotStore store;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  std::istringstream in(
      "LOOKUP 20.0.1.1\n"
      "BATCH 2\n20.0.1.1\n8.8.8.8\n"
      "STATS\n");
  std::ostringstream out;
  service.Run(in, out);
  EXPECT_NE(out.str().find("ERR no snapshot loaded\nERR no snapshot "
                           "loaded\n"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("generation=0 epoch=0"), std::string::npos);
}

// A publish's provenance on the STATS line is the store's generation and
// the served snapshot's epoch, and the first line ends with them.
TEST(StorePublish, StatsLineCarriesPublishProvenance) {
  SnapshotStore store;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  auto counters_line = [&] {
    std::istringstream in("STATS\n");
    std::ostringstream out;
    service.Run(in, out);
    return out.str().substr(0, out.str().find('\n'));
  };
  auto ends_with = [](const std::string& line, const std::string& tail) {
    return line.size() >= tail.size() &&
           line.compare(line.size() - tail.size(), tail.size(), tail) == 0;
  };
  EXPECT_TRUE(ends_with(counters_line(), " generation=0 epoch=0"));
  for (std::uint64_t epoch : {7, 3}) {
    std::optional<Snapshot> snapshot =
        Snapshot::FromBuffer(SampleSnapshotBytes(epoch));
    ASSERT_TRUE(snapshot.has_value());
    store.Swap(std::make_shared<const Snapshot>(*std::move(snapshot)));
    const std::string line = counters_line();
    EXPECT_TRUE(ends_with(line, " generation=" +
                                    std::to_string(store.generation()) +
                                    " epoch=" + std::to_string(epoch)))
        << line;
  }
  store.Swap(nullptr);
  EXPECT_TRUE(ends_with(counters_line(), " generation=3 epoch=0"));
}

}  // namespace
}  // namespace hobbit::serve
