// SnapshotStore RCU semantics under real concurrency — built into the
// serve concurrency test binary, which the tsan preset runs under
// ThreadSanitizer: readers hammer lookups while a writer hot-swaps
// snapshots, and every observation must be internally consistent (a
// reader sees epoch-1 data or epoch-2 data, never a blend), with no
// snapshot leaked once the readers drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/lookup.h"
#include "serve/service.h"
#include "serve/store.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using test::Pfx;

// Two epochs with deliberately different answers for the same key space:
// epoch 1 has N blocks of one /24 each; epoch 2 drops the odd /24s and
// re-homes the even ones into one big block.  A torn read would surface
// as an answer impossible under either epoch.
std::vector<cluster::AggregateBlock> BlocksOne(int n) {
  std::vector<cluster::AggregateBlock> blocks;
  for (int i = 0; i < n; ++i) {
    cluster::AggregateBlock b;
    b.member_24s = {netsim::Prefix::Of(
        netsim::Ipv4Address(0x14000000u + 256u * static_cast<unsigned>(i)),
        24)};
    b.last_hops = {Addr("10.0.0.1")};
    blocks.push_back(std::move(b));
  }
  return blocks;
}

std::vector<cluster::AggregateBlock> BlocksTwo(int n) {
  cluster::AggregateBlock big;
  big.last_hops = {Addr("10.0.0.2")};
  for (int i = 0; i < n; i += 2) {
    big.member_24s.push_back(netsim::Prefix::Of(
        netsim::Ipv4Address(0x14000000u + 256u * static_cast<unsigned>(i)),
        24));
  }
  return {big};
}

std::vector<std::byte> EpochOne(int n) {
  return CompileSnapshotV2(BlocksOne(n), {}, 1);
}

std::vector<std::byte> EpochTwo(int n) {
  return CompileSnapshotV2(BlocksTwo(n), {}, 2);
}

std::shared_ptr<const Snapshot> Load(const std::vector<std::byte>& bytes) {
  std::string error;
  auto snapshot = Snapshot::FromBuffer(bytes, &error);
  EXPECT_TRUE(snapshot.has_value()) << error;
  return std::make_shared<const Snapshot>(*std::move(snapshot));
}

/// Start-line rendezvous: the writer blocks until every reader has
/// checked in, so swaps are guaranteed to overlap live readers instead
/// of hoping the scheduler interleaves them (on a loaded single-core
/// box the writer used to be able to finish every swap before a reader
/// thread first ran).
class StartGate {
 public:
  explicit StartGate(int expected) : remaining_(expected) {}

  /// A participant announces it is about to enter its work loop.
  void Arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) all_arrived_.notify_all();
  }

  /// The coordinator waits for every participant.
  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_arrived_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_arrived_;
  int remaining_;
};

TEST(SnapshotStore, HotSwapUnderConcurrentLookups) {
  constexpr int kSlash24s = 64;
  constexpr int kReaders = 4;
  constexpr int kSwaps = 400;
  SnapshotStore store;
  auto one = Load(EpochOne(kSlash24s));
  auto two = Load(EpochTwo(kSlash24s));
  store.Swap(one);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> inconsistencies{0};
  StartGate gate(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint32_t key = 0x14000000u + 256u * static_cast<unsigned>(r);
      gate.Arrive();
      // do-while: even a reader descheduled right after the rendezvous
      // still validates at least one pass.
      do {
        std::shared_ptr<const Snapshot> snapshot = store.Current();
        LookupEngine engine(*snapshot);
        for (int i = 0; i < kSlash24s; ++i) {
          std::uint32_t probe = key + 256u * static_cast<unsigned>(i);
          probe = 0x14000000u + (probe - 0x14000000u) %
                                    (256u * kSlash24s);
          LookupResult got =
              engine.Lookup(netsim::Ipv4Address(probe));
          int index = static_cast<int>((probe - 0x14000000u) / 256u);
          bool ok;
          if (snapshot->epoch() == 1) {
            // Every /24 present, one block each, id == index.
            ok = got.found &&
                 got.block == static_cast<std::uint32_t>(index);
          } else {
            // Only even /24s, all in block 0.
            ok = (index % 2 == 0) ? (got.found && got.block == 0)
                                  : !got.found;
          }
          if (!ok) inconsistencies.fetch_add(1);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  // Swaps begin only after every reader is live, so they are guaranteed
  // to land on running lookup loops.
  gate.AwaitAll();
  for (int s = 0; s < kSwaps; ++s) {
    store.Swap(s % 2 == 0 ? two : one);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.generation(), static_cast<std::uint64_t>(kSwaps) + 1);

  // No leaked snapshots: once the store drops its reference and the
  // readers are gone, only our two local handles remain.
  std::weak_ptr<const Snapshot> weak_one = one;
  std::weak_ptr<const Snapshot> weak_two = two;
  store.Swap(nullptr);
  one.reset();
  two.reset();
  EXPECT_TRUE(weak_one.expired());
  EXPECT_TRUE(weak_two.expired());
}

TEST(SnapshotStore, ConcurrentFileReloadsAgainstReaders) {
  const std::string good_path = ::testing::TempDir() + "store_epoch1.snap";
  const std::string next_path = ::testing::TempDir() + "store_epoch2.snap";
  const std::string bad_path = ::testing::TempDir() + "store_corrupt.snap";
  ASSERT_TRUE(WriteSnapshotFile(good_path, EpochOne(16)));
  ASSERT_TRUE(WriteSnapshotFile(next_path, EpochTwo(16)));
  auto corrupt = EpochTwo(16);
  corrupt[corrupt.size() - 1] ^= std::byte{0xFF};
  ASSERT_TRUE(WriteSnapshotFile(bad_path, corrupt));

  SnapshotStore store;
  ASSERT_TRUE(store.ReloadFromFile(good_path));

  std::atomic<bool> stop{false};
  StartGate gate(2);
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      gate.Arrive();
      do {
        auto snapshot = store.Current();
        ASSERT_NE(snapshot, nullptr);
        std::uint64_t epoch = snapshot->epoch();
        ASSERT_TRUE(epoch == 1 || epoch == 2);
        LookupEngine engine(*snapshot);
        LookupResult got = engine.Lookup(Pfx("20.0.0.0/24"));
        // 20.0.0.0/24 (0x14000000) exists in both epochs, block 0.
        ASSERT_TRUE(got.found);
        ASSERT_EQ(got.block, 0u);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  gate.AwaitAll();  // reloads start only against live readers
  for (int s = 0; s < 60; ++s) {
    EXPECT_TRUE(
        store.ReloadFromFile(s % 2 == 0 ? next_path : good_path));
    // Corrupt files are rejected mid-flight without disturbing readers.
    std::string error;
    EXPECT_FALSE(store.ReloadFromFile(bad_path, &error));
    EXPECT_FALSE(error.empty());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(store.failed_reloads(), 60u);
  EXPECT_EQ(store.generation(), 61u);
  std::remove(good_path.c_str());
  std::remove(next_path.c_str());
  std::remove(bad_path.c_str());
}

// The full service stack under swap pressure: worker threads pump LOOKUP
// sessions through LineService while the main thread RELOADs alternating
// snapshot files — the protocol layer must never return a blended answer.
TEST(SnapshotStore, ServiceSessionsDuringReloads) {
  const std::string a_path = ::testing::TempDir() + "svc_epoch1.snap";
  const std::string b_path = ::testing::TempDir() + "svc_epoch2.snap";
  ASSERT_TRUE(WriteSnapshotFile(a_path, EpochOne(8)));
  ASSERT_TRUE(WriteSnapshotFile(b_path, EpochTwo(8)));

  SnapshotStore store;
  ServeMetrics metrics;
  ASSERT_TRUE(store.ReloadFromFile(a_path));

  std::atomic<bool> stop{false};
  StartGate gate(2);
  std::vector<std::thread> sessions;
  for (int t = 0; t < 2; ++t) {
    sessions.emplace_back([&] {
      LineService service(&store, &metrics);
      gate.Arrive();
      // do-while: each session still validates at least one pass even
      // if it is descheduled right after the rendezvous.
      do {
        std::istringstream in("LOOKUP 20.0.2.1\nLOOKUP 20.0.1.1\n");
        std::ostringstream out;
        service.Run(in, out);
        std::string reply = out.str();
        // 20.0.2.0/24 (even index 2) is in both epochs; 20.0.1.0/24
        // (odd index 1) only in epoch 1.  Valid replies are HIT+HIT
        // (epoch 1, possibly spanning a swap) or HIT+MISS (epoch 2).
        bool first_hit = reply.find("HIT 20.0.2.0/24") == 0;
        ASSERT_TRUE(first_hit) << reply;
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  gate.AwaitAll();  // reloads start only against live sessions
  for (int s = 0; s < 80; ++s) {
    ASSERT_TRUE(store.ReloadFromFile(s % 2 == 0 ? b_path : a_path));
  }
  stop.store(true, std::memory_order_release);
  for (auto& session : sessions) session.join();
  EXPECT_GE(metrics.lookups.load(), 4u);
  EXPECT_EQ(metrics.misses.load() + metrics.hits.load(),
            metrics.lookups.load());
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

/// The published index must be the published snapshot's keys: every
/// key's lower-bound rank is its entry index and its upper bound the next.
void ExpectIndexMatchesSnapshot(const SnapshotStore& store) {
  std::shared_ptr<const PublishedSnapshot> published = store.Published();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(store.Current().get(), published->snapshot.get());
  const Snapshot& snapshot = *published->snapshot;
  const EytzingerIndex& index = published->index;
  ASSERT_EQ(index.size(), snapshot.entry_count());
  for (std::size_t i = 0; i < snapshot.entry_count(); ++i) {
    ASSERT_EQ(index.LowerBoundRank(snapshot.EntryKey(i)), i);
    ASSERT_EQ(index.UpperBoundRank(snapshot.EntryKey(i)), i + 1);
  }
}

TEST(SnapshotStore, EveryPublishCarriesTheIndexOfItsSnapshot) {
  SnapshotStore store;
  EXPECT_EQ(store.Published(), nullptr);
  for (int n : {1, 7, 100, 1000}) {
    store.Swap(Load(EpochOne(n)));
    ExpectIndexMatchesSnapshot(store);
  }
  const std::string path = ::testing::TempDir() + "store_index.snap";
  SnapshotLoadOptions mmap;
  mmap.use_mmap = true;
  mmap.defer_verification = true;
  for (int n : {300, 37}) {
    ASSERT_TRUE(WriteSnapshotFile(path, EpochTwo(n)));
    std::string error;
    ASSERT_TRUE(store.ReloadFromFile(path, &error)) << error;
    ExpectIndexMatchesSnapshot(store);
    ASSERT_TRUE(store.ReloadFromFile(path, &error, mmap)) << error;
    EXPECT_TRUE(store.Current()->is_mapped());
    ExpectIndexMatchesSnapshot(store);
  }
  std::remove(path.c_str());
  store.Swap(nullptr);
  EXPECT_EQ(store.Published(), nullptr);
  EXPECT_EQ(store.Current(), nullptr);
}

// RELOAD between snapshots of different sizes: every LOOKUP, BATCH and
// COVER after it answers from the new snapshot.
TEST(SnapshotStore, QueriesAfterReloadAnswerFromTheNewSnapshot) {
  const std::string small_path = ::testing::TempDir() + "svc_small.snap";
  const std::string large_path = ::testing::TempDir() + "svc_large.snap";
  const std::string merged_path = ::testing::TempDir() + "svc_merged.snap";
  ASSERT_TRUE(WriteSnapshotFile(small_path, EpochOne(16)));
  ASSERT_TRUE(WriteSnapshotFile(large_path, EpochOne(300)));
  ASSERT_TRUE(WriteSnapshotFile(merged_path, EpochTwo(40)));
  SnapshotStore store;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  auto run = [&](std::string_view line, std::string_view batch = {}) {
    std::string out;
    EXPECT_TRUE(service.Execute(line, batch, &out));
    return out;
  };
  const std::string queries = "20.0.15.1\n20.0.16.0/24\n20.1.43.9\n";
  EXPECT_EQ(run("RELOAD " + small_path),
            "OK generation=1 entries=16 blocks=16 epoch=1\n");
  EXPECT_EQ(run("LOOKUP 20.1.43.1"), "MISS 20.1.43.1\n");
  EXPECT_EQ(run("BATCH 3", queries),
            "HIT 20.0.15.0/24 block=15 class=- members=1 hops=1\n"
            "MISS 20.0.16.0/24\n"
            "MISS 20.1.43.9\n"
            "OK 3\n");
  EXPECT_EQ(run("LOOKUP 20.0.0.0/16"), "COVER 20.0.0.0/16 entries=16 blocks=16\n");

  EXPECT_EQ(run("RELOAD " + large_path),
            "OK generation=2 entries=300 blocks=300 epoch=1\n");
  EXPECT_EQ(run("LOOKUP 20.1.43.1"),
            "HIT 20.1.43.0/24 block=299 class=- members=1 hops=1\n");
  EXPECT_EQ(run("BATCH 3", queries),
            "HIT 20.0.15.0/24 block=15 class=- members=1 hops=1\n"
            "HIT 20.0.16.0/24 block=16 class=- members=1 hops=1\n"
            "HIT 20.1.43.0/24 block=299 class=- members=1 hops=1\n"
            "OK 3\n");
  EXPECT_EQ(run("LOOKUP 20.0.0.0/16"),
            "COVER 20.0.0.0/16 entries=256 blocks=256\n");

  EXPECT_EQ(run("RELOAD " + merged_path),
            "OK generation=3 entries=20 blocks=1 epoch=2\n");
  EXPECT_EQ(run("LOOKUP 20.1.43.1"), "MISS 20.1.43.1\n");
  EXPECT_EQ(run("BATCH 3", queries),
            "MISS 20.0.15.1\n"
            "HIT 20.0.16.0/24 block=0 class=- members=20 hops=1\n"
            "MISS 20.1.43.9\n"
            "OK 3\n");
  EXPECT_EQ(run("LOOKUP 20.0.0.0/16"), "COVER 20.0.0.0/16 entries=20 blocks=1\n");
  for (const std::string& path : {small_path, large_path, merged_path}) {
    std::remove(path.c_str());
  }
}

/// Every /24 of `n` consecutive slots from 20.0.0.0, answered through
/// the pair's index.
std::vector<LookupResult> AnswersOf(const PublishedSnapshot& pair, int n) {
  LookupEngine engine(*pair.snapshot, &pair.index);
  std::vector<LookupResult> answers;
  for (int i = 0; i < n; ++i) {
    answers.push_back(engine.Lookup(netsim::Prefix::Of(
        netsim::Ipv4Address(0x14000000u + 256u * static_cast<unsigned>(i)),
        24)));
  }
  return answers;
}

bool SameAnswers(const std::vector<LookupResult>& a,
                 const std::vector<LookupResult>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LookupResult& x, const LookupResult& y) {
                      return x.found == y.found && x.key == y.key &&
                             x.block == y.block &&
                             x.class_token == y.class_token;
                    });
}

// A reload recycles the memory of the pair it retires.  A pair a reader
// still holds is not retired: across reloads that recycle every other
// pair's memory, its bytes, checksum and answers stay as they were, read
// from another thread the whole time.  The reloads cycle through two
// files other than the pinned one, so memory recycled too early would
// be overwritten with different bytes.
TEST(SnapshotStore, PinnedPairSurvivesReloadsThatRecycleMemory) {
  const std::string a_path = ::testing::TempDir() + "pin_epoch1.snap";
  const std::string b_path = ::testing::TempDir() + "pin_epoch2.snap";
  const std::string c_path = ::testing::TempDir() + "pin_epoch3.snap";
  ASSERT_TRUE(WriteSnapshotFile(a_path, EpochOne(300)));
  ASSERT_TRUE(WriteSnapshotFile(b_path, EpochTwo(300)));
  ASSERT_TRUE(
      WriteSnapshotFile(c_path, CompileSnapshotV2(BlocksOne(299), {}, 3)));
  SnapshotStore store;
  ASSERT_TRUE(store.ReloadFromFile(a_path));
  std::shared_ptr<const PublishedSnapshot> pinned = store.Published();
  const std::vector<std::byte> bytes(pinned->snapshot->bytes().begin(),
                                     pinned->snapshot->bytes().end());
  const std::uint64_t checksum = pinned->snapshot->checksum();
  const std::vector<LookupResult> answers = AnswersOf(*pinned, 300);

  std::atomic<bool> stop{false};
  StartGate gate(1);
  std::thread reader([&] {
    gate.Arrive();
    do {
      const std::span<const std::byte> now = pinned->snapshot->bytes();
      ASSERT_TRUE(std::equal(now.begin(), now.end(), bytes.begin(),
                             bytes.end()));
      ASSERT_TRUE(SameAnswers(AnswersOf(*pinned, 300), answers));
    } while (!stop.load(std::memory_order_acquire));
  });
  gate.AwaitAll();
  for (int s = 0; s < 8; ++s) {
    ASSERT_TRUE(store.ReloadFromFile(s % 2 == 0 ? b_path : c_path));
    ASSERT_EQ(store.Current()->epoch(), s % 2 == 0 ? 2u : 3u);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const std::span<const std::byte> now = pinned->snapshot->bytes();
  EXPECT_TRUE(std::equal(now.begin(), now.end(), bytes.begin(), bytes.end()));
  EXPECT_EQ(pinned->snapshot->checksum(), checksum);
  EXPECT_TRUE(SameAnswers(AnswersOf(*pinned, 300), answers));
  // Released, the pinned pair's memory serves the next reloads.
  pinned.reset();
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(store.ReloadFromFile(s % 2 == 0 ? b_path : a_path));
  }
  std::shared_ptr<const Snapshot> fresh = Load(EpochTwo(300));
  const PublishedSnapshot reference{fresh, EytzingerIndex::Build(*fresh)};
  EXPECT_TRUE(SameAnswers(AnswersOf(*store.Published(), 300),
                          AnswersOf(reference, 300)));
  for (const std::string& path : {a_path, b_path, c_path}) {
    std::remove(path.c_str());
  }
}

// Reloads through recycled memory answer exactly like a fresh load of
// each file: a large file, a smaller one, a truncated one and one with a
// corrupt checksum, in an order that reuses every buffer size.  A failed
// reload gives the fresh load's error and leaves the served pair as it
// was.
TEST(SnapshotStore, RecycledReloadsMatchFreshLoads) {
  const std::string large = ::testing::TempDir() + "mix_large.snap";
  const std::string small = ::testing::TempDir() + "mix_small.snap";
  const std::string truncated = ::testing::TempDir() + "mix_truncated.snap";
  const std::string corrupt = ::testing::TempDir() + "mix_corrupt.snap";
  const std::vector<std::byte> large_bytes = EpochOne(400);
  ASSERT_TRUE(WriteSnapshotFile(large, large_bytes));
  ASSERT_TRUE(WriteSnapshotFile(small, EpochTwo(40)));
  ASSERT_TRUE(WriteSnapshotFile(
      truncated, std::span<const std::byte>(large_bytes.data(),
                                            large_bytes.size() - 100)));
  std::vector<std::byte> corrupt_bytes = large_bytes;
  corrupt_bytes[corrupt_bytes.size() - 1] ^= std::byte{0x01};
  ASSERT_TRUE(WriteSnapshotFile(corrupt, corrupt_bytes));

  SnapshotStore store;
  ServeMetrics metrics;
  LineService service(&store, &metrics);
  const std::vector<std::string> commands = {
      "LOOKUP 20.0.0.1",   "LOOKUP 20.0.1.0/24", "LOOKUP 20.0.38.7",
      "LOOKUP 20.1.143.1", "LOOKUP 20.0.0.0/16", "LOOKUP 20.0.0.0/8",
      "LOOKUP 9.9.9.9"};
  auto replies = [&commands](LineService& on) {
    std::string out;
    for (const std::string& command : commands) {
      EXPECT_TRUE(on.Execute(command, {}, &out));
    }
    EXPECT_TRUE(on.Execute("BATCH 3", "20.0.2.9\n20.1.0.0/24\n20.0.77.1\n",
                           &out));
    return out;
  };
  std::vector<std::byte> served;
  SnapshotLoadOptions mapped;
  mapped.use_mmap = true;
  int successes = 0;
  const std::pair<std::string, bool> sequence[] = {
      {large, false},     {small, false}, {truncated, false},
      {corrupt, false},   {large, false}, {truncated, false},
      {small, true},      {corrupt, false}, {large, false},
      {small, false},     {large, false}, {small, false}};
  for (const auto& [path, use_mmap] : sequence) {
    std::string fresh_error;
    std::optional<Snapshot> fresh = Snapshot::FromFile(path, &fresh_error);
    std::shared_ptr<const PublishedSnapshot> before = store.Published();
    const std::uint64_t generation = store.generation();
    std::string error;
    const bool ok = store.ReloadFromFile(
        path, &error, use_mmap ? mapped : SnapshotLoadOptions{});
    ASSERT_EQ(ok, fresh.has_value()) << path;
    if (!ok) {
      EXPECT_EQ(error, fresh_error) << path;
      EXPECT_EQ(store.Published(), before);
      EXPECT_EQ(store.generation(), generation);
      const std::span<const std::byte> now = store.Current()->bytes();
      EXPECT_TRUE(
          std::equal(now.begin(), now.end(), served.begin(), served.end()));
      continue;
    }
    ++successes;
    std::shared_ptr<const PublishedSnapshot> published = store.Published();
    EXPECT_EQ(published->snapshot->is_mapped(), use_mmap);
    const std::span<const std::byte> now = published->snapshot->bytes();
    ASSERT_TRUE(std::equal(now.begin(), now.end(), fresh->bytes().begin(),
                           fresh->bytes().end()))
        << path;
    EXPECT_TRUE(published->index == EytzingerIndex::Build(*fresh)) << path;
    served.assign(now.begin(), now.end());
    SnapshotStore reference;
    ServeMetrics reference_metrics;
    reference.Swap(std::make_shared<const Snapshot>(*std::move(fresh)));
    LineService reference_service(&reference, &reference_metrics);
    EXPECT_EQ(replies(service), replies(reference_service)) << path;
  }
  EXPECT_EQ(successes, 8);
  EXPECT_EQ(store.failed_reloads(), 4u);
  for (const std::string& path : {large, small, truncated, corrupt}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace hobbit::serve
