// The streaming campaign subsystem: queue semantics and backpressure,
// batch-equivalence of the streamed stages, thread-count invariance
// (with and without route churn), the bounded in-flight guarantee, and
// the live publish chain into a snapshot store.
// Built into its own binary labelled `stream` + `concurrency` so the
// tsan presets exercise the producer/consumer machinery under
// ThreadSanitizer.
#include "stream/stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "cluster/aggregate.h"
#include "common/bounded_queue.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "scenario/artifacts.h"
#include "serve/snapshot.h"
#include "serve/store.h"

namespace hobbit::stream {
namespace {

// ---------------------------------------------------------------- queue

TEST(BoundedQueue, FifoOrderAndCounters) {
  common::BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    std::optional<int> item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  common::QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.pushed, 4u);
  EXPECT_EQ(counters.popped, 4u);
  EXPECT_EQ(counters.peak_depth, 4u);
  EXPECT_EQ(counters.push_waits, 0u);
}

TEST(BoundedQueue, CapacityClampsToOne) {
  common::BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.Push(7));
  EXPECT_EQ(*queue.Pop(), 7);
}

TEST(BoundedQueue, BackpressureBlocksProducerUntilConsumed) {
  common::BoundedQueue<int> queue(2);
  constexpr int kItems = 8;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) EXPECT_TRUE(queue.Push(i));
    queue.Close();
  });
  // Consume slowly so the producer actually hits the full ring.
  std::vector<int> got;
  while (std::optional<int> item = queue.Pop()) {
    got.push_back(*item);
    std::this_thread::yield();
  }
  producer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[i], i);
  common::QueueCounters counters = queue.counters();
  EXPECT_EQ(counters.pushed, static_cast<std::uint64_t>(kItems));
  EXPECT_LE(counters.peak_depth, queue.capacity());
}

TEST(BoundedQueue, CloseDrainsThenEndsBothSides) {
  common::BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));  // producers turned away...
  EXPECT_EQ(*queue.Pop(), 1);   // ...but queued items still delivered
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());  // idempotent at the end
}

TEST(BoundedQueue, CapacityOneIsAStrictHandoff) {
  common::BoundedQueue<int> queue(1);
  constexpr int kItems = 64;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) EXPECT_TRUE(queue.Push(i));
    queue.Close();
  });
  std::vector<int> got;
  while (std::optional<int> item = queue.Pop()) got.push_back(*item);
  producer.join();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(got[i], i);
  // One slot means at most one resident item, ever.
  EXPECT_EQ(queue.counters().peak_depth, 1u);
}

TEST(BoundedQueue, CloseWhileManyProducersBlockedOnFull) {
  common::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(0));  // the ring is now full
  constexpr int kProducers = 3;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      if (!queue.Push(100 + p)) rejected.fetch_add(1);
    });
  }
  // Wait until every producer is actually parked on the full ring
  // before closing, so Close must wake all of them.
  while (queue.counters().push_waits <
         static_cast<std::uint64_t>(kProducers)) {
    std::this_thread::yield();
  }
  queue.Close();
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(rejected.load(), kProducers);
  // The item accepted before Close still drains; nothing else does.
  EXPECT_EQ(*queue.Pop(), 0);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_EQ(queue.counters().pushed, 1u);
}

TEST(BoundedQueue, DrainAfterCloseKeepsOrderAndRejectsNewPushes) {
  common::BoundedQueue<int> queue(4);
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(queue.Push(i));
  queue.Close();
  EXPECT_EQ(*queue.Pop(), 1);
  EXPECT_EQ(*queue.Pop(), 2);
  // A Push attempted mid-drain is still rejected and must not corrupt
  // the order of what remains.
  EXPECT_FALSE(queue.Push(99));
  EXPECT_EQ(*queue.Pop(), 3);
  EXPECT_EQ(*queue.Pop(), 4);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_EQ(queue.counters().popped, 4u);
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  common::BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(queue.Push(2));  // parked on the full ring, then woken
    returned.store(true);
  });
  while (queue.counters().push_waits == 0) std::this_thread::yield();
  queue.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

// ------------------------------------------------------------- campaign

core::PipelineConfig SmallBatch(std::uint64_t seed) {
  core::PipelineConfig config;
  config.seed = seed;
  config.calibration_blocks = 60;
  config.samples_per_block = 48;
  config.prober.min_cell_trials = 100;
  return config;
}

StreamConfig SmallStream(std::uint64_t seed) {
  StreamConfig config;
  config.campaign = SmallBatch(seed);
  return config;
}

// The streamed stages must reproduce the batch pipeline bit for bit:
// same per-/24 classifications, same aggregates, and a final snapshot
// byte-identical to CompileSnapshotV2 over the batch outputs.
TEST(StreamCampaign, MatchesBatchPipeline) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(21));
  core::PipelineResult batch = RunPipeline(internet, SmallBatch(21));

  StreamConfig config = SmallStream(21);
  config.window = 16;
  config.epoch_base = 7;
  StreamResult stream = RunStreamCampaign(internet, config);

  ASSERT_EQ(stream.records.size(), batch.results.size());
  std::map<std::uint32_t, const core::BlockResult*> by_key;
  for (const core::BlockResult& r : batch.results) {
    by_key[r.prefix.base().value()] = &r;
  }
  for (const StreamRecord& record : stream.records) {
    auto pos = by_key.find(record.prefix.base().value());
    ASSERT_NE(pos, by_key.end()) << record.prefix.ToString();
    EXPECT_EQ(record.classification, pos->second->classification)
        << record.prefix.ToString();
    EXPECT_EQ(record.probes_used, pos->second->probes_used);
  }
  EXPECT_EQ(stream.classification_counts, batch.classification_counts());

  std::vector<cluster::AggregateBlock> reference_blocks =
      cluster::AggregateIdentical(batch.HomogeneousBlocks());
  ASSERT_EQ(stream.blocks.size(), reference_blocks.size());
  for (std::size_t i = 0; i < stream.blocks.size(); ++i) {
    EXPECT_EQ(stream.blocks[i].member_24s, reference_blocks[i].member_24s);
    EXPECT_EQ(stream.blocks[i].last_hops, reference_blocks[i].last_hops);
  }

  std::vector<std::byte> reference = serve::CompileSnapshotV2(
      reference_blocks,
      serve::ClassifiedFrom(
          std::span<const core::BlockResult>(batch.results)),
      config.epoch_base);
  EXPECT_EQ(stream.final_snapshot, reference);
  EXPECT_EQ(stream.stats.publishes, 1u);
  EXPECT_EQ(stream.stats.measured_24s, batch.results.size());
}

// Thread-count invariance with churn: segment boundaries sit at fixed
// indices, so the same flips land between the same waves regardless of
// how chunks map to threads, or whether a pool exists at all.  Each run
// needs its own world (churn mutates the topology).
TEST(StreamCampaign, ThreadCountInvariantUnderChurn) {
  auto run = [](common::ThreadPool* pool) {
    netsim::Internet internet =
        netsim::BuildInternet(netsim::TinyConfig(23));
    StreamConfig config = SmallStream(23);
    config.campaign.pool = pool;
    config.window = 8;
    config.segment = 40;
    netsim::Rng churn_rng = netsim::Rng(23).Fork(0xC4024ULL);
    config.on_segment_boundary = [&internet, churn_rng](std::size_t) mutable {
      scenario::InjectRouteChurn(internet.topology, churn_rng, 3);
    };
    return RunStreamCampaign(internet, config);
  };
  const StreamResult serial = run(nullptr);
  ASSERT_GT(serial.records.size(), 0u);
  for (int threads : {1, 2, 7}) {
    SCOPED_TRACE(threads);
    common::ThreadPool pool(threads);
    const StreamResult pooled = run(&pool);
    ASSERT_EQ(pooled.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(pooled.records[i].prefix, serial.records[i].prefix);
      EXPECT_EQ(pooled.records[i].classification,
                serial.records[i].classification);
      EXPECT_EQ(pooled.records[i].probes_used,
                serial.records[i].probes_used);
    }
    EXPECT_EQ(pooled.final_snapshot, serial.final_snapshot);
  }
}

// The O(in-flight) guarantee: a tiny window with a deliberately slow
// consumer stage still never exceeds window + workers + 1 resident
// results.
TEST(StreamCampaign, PeakInflightBoundedByWindow) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(31));
  common::ThreadPool pool(2);
  StreamConfig config = SmallStream(31);
  config.campaign.pool = &pool;
  config.window = 4;
  StreamResult result = RunStreamCampaign(internet, config);
  ASSERT_GT(result.stats.measured_24s, config.window);
  EXPECT_GT(result.stats.peak_inflight_results, 0u);
  EXPECT_LE(result.stats.peak_inflight_results,
            result.stats.inflight_bound);
  EXPECT_EQ(result.stats.results_queue.pushed,
            static_cast<std::uint64_t>(result.stats.measured_24s));
  EXPECT_EQ(result.stats.results_queue.pushed,
            result.stats.results_queue.popped);
}

// Live publishing: every publish is a full compile swapped into the
// store, so the store's generation counts the publishes, the last one
// carries the last epoch, and the served bytes are the compile of the
// final blocks and records.
TEST(StreamCampaign, PublishChainServesTheCompiledFinalState) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(37));
  serve::SnapshotStore store;
  StreamConfig config = SmallStream(37);
  config.window = 8;
  config.publish_every = 25;
  config.store = &store;
  config.epoch_base = 100;
  StreamResult result = RunStreamCampaign(internet, config);

  EXPECT_EQ(result.stats.publish_failures, 0u);
  EXPECT_GE(result.stats.publishes, 2u);
  EXPECT_EQ(store.generation(), result.stats.publishes);

  std::shared_ptr<const serve::Snapshot> current = store.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch(),
            config.epoch_base + result.stats.publishes - 1);
  // The served bytes ARE the final snapshot, and that is the compile of
  // the final blocks and records.
  std::span<const std::byte> served = current->bytes();
  EXPECT_TRUE(std::equal(served.begin(), served.end(),
                         result.final_snapshot.begin(),
                         result.final_snapshot.end()));
  std::vector<serve::ClassifiedPrefix> classified;
  for (const StreamRecord& record : result.records) {
    classified.push_back(
        {record.prefix, static_cast<std::uint8_t>(record.classification)});
  }
  EXPECT_EQ(result.final_snapshot,
            serve::CompileSnapshotV2(result.blocks, classified,
                                     current->epoch()));
  // And the whole campaign publishes the same final state the
  // store-less run compiles directly.
  netsim::Internet fresh = netsim::BuildInternet(netsim::TinyConfig(37));
  StreamConfig plain = SmallStream(37);
  plain.window = 8;
  plain.epoch_base = current->epoch();
  StreamResult reference = RunStreamCampaign(fresh, plain);
  EXPECT_EQ(result.final_snapshot, reference.final_snapshot);
}

// ---------------------------------------------------------------- churn

TEST(RouteChurn, FlipsEntriesAndBumpsMutationEpoch) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(41));
  const std::uint64_t before = internet.topology.mutation_epoch();
  netsim::Rng rng(99);
  std::size_t applied = scenario::InjectRouteChurn(internet.topology, rng, 5);
  EXPECT_GT(applied, 0u);  // TinyConfig worlds always have ECMP entries
  EXPECT_GT(internet.topology.mutation_epoch(), before);
}

TEST(RouteChurn, ChangesMeasurementOutcomeEventually) {
  // Churn is not a no-op: flipping preferred next hops between waves
  // must be visible to at least one later classification or last-hop
  // set (otherwise the streaming re-measurement story is vacuous).
  auto run = [](bool churn) {
    netsim::Internet internet =
        netsim::BuildInternet(netsim::TinyConfig(43));
    StreamConfig config = SmallStream(43);
    config.segment = 30;
    if (churn) {
      netsim::Rng churn_rng = netsim::Rng(43).Fork(0xC4024ULL);
      config.on_segment_boundary = [&internet,
                                    churn_rng](std::size_t) mutable {
        scenario::InjectRouteChurn(internet.topology, churn_rng, 8);
      };
    }
    return RunStreamCampaign(internet, config);
  };
  StreamResult quiet = run(false);
  StreamResult churned = run(true);
  EXPECT_NE(quiet.final_snapshot, churned.final_snapshot);
}

}  // namespace
}  // namespace hobbit::stream
