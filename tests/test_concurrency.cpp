// Concurrency: Simulator::Send is const and documented safe for parallel
// measurement threads; verify replies are identical regardless of
// concurrent use and that the artifact hook sees every packet.
//
// The second half checks the deterministic-sharding contract end to end:
// RunZmapScan, RunPipeline, RunMcl, BuildSimilarityGraph and
// ValidateClusters must
// produce byte-identical results for any thread count (see
// src/common/parallel.h and DESIGN.md "Parallel execution model").
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/aggregate.h"
#include "cluster/sparse.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "probing/zmap.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace hobbit::netsim {
namespace {

TEST(Concurrency, ParallelSendsMatchSerialReplies) {
  test::MiniNet net = test::BuildMiniNet();
  const Simulator& simulator = *net.simulator;

  // Reference replies, computed serially.
  std::vector<ProbeSpec> probes;
  for (std::uint32_t host = 1; host < 64; ++host) {
    for (int ttl : {3, 6, 64}) {
      ProbeSpec probe;
      probe.destination = test::Addr("20.0.2.0");
      probe.destination = Ipv4Address(probe.destination.value() + host);
      probe.ttl = ttl;
      probe.flow_id = static_cast<std::uint16_t>(host);
      probes.push_back(probe);
    }
  }
  std::vector<ProbeReply> expected;
  expected.reserve(probes.size());
  RouteMemo reference_memo;
  for (const ProbeSpec& probe : probes) {
    expected.push_back(simulator.Send(probe, reference_memo));
  }

  // Re-send everything from four threads; each checks its shard.
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      RouteMemo memo;  // one per thread: a memo is single-owner state
      for (std::size_t i = static_cast<std::size_t>(w); i < probes.size();
           i += 4) {
        ProbeReply reply = simulator.Send(probes[i], memo);
        if (reply.kind != expected[i].kind ||
            reply.responder != expected[i].responder ||
            reply.reply_ttl != expected[i].reply_ttl) {
          ++mismatches[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(Concurrency, ProbeCounterCountsEveryPacket) {
  // Send from several threads at once: the artifact hook still runs
  // exactly once per packet, so the shared counting oracle is exact.
  test::MiniNet net = test::BuildMiniNet();
  Simulator& simulator = *net.simulator;
  test::SendCounter sends(simulator);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      ProbeSpec probe;
      probe.destination = test::Addr("20.0.1.9");
      probe.ttl = 64;
      RouteMemo memo;
      for (int i = 0; i < kPerThread; ++i) simulator.Send(probe, memo);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(sends.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

using test::ForEachPool;
using test::ThreadCounts;

// FNV-1a over a snapshot: each block's prefix base (little-endian), then
// its active octets in ascending order.
std::uint64_t SnapshotHash(const probing::ZmapSnapshot& snapshot) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint32_t byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  for (const probing::ZmapBlock& block : snapshot.blocks) {
    const std::uint32_t base = block.prefix.base().value();
    for (int shift = 0; shift < 32; shift += 8) fold((base >> shift) & 0xFF);
    for (std::uint8_t octet : block.ActiveOctets()) fold(octet);
  }
  return hash;
}

TEST(ZmapScan, GoldenSnapshot) {
  // Pins the snapshot of two fixed worlds at every thread count.  The
  // constants were recorded from the original byte-list scan; any
  // restructuring of the scan must reproduce them bit for bit.
  struct Golden {
    std::uint64_t seed, hash, active;
    std::size_t candidates, study;
  };
  const Golden kGolden[] = {
      {11, 0x699ab74ff1734fbdULL, 166946, 4960, 2821},
      {42, 0x07a99a54648c35bfULL, 166535, 4962, 2845},
  };
  for (const Golden& golden : kGolden) {
    InternetConfig world;
    world.seed = golden.seed;
    world.scale = 0.05;
    Internet internet = BuildInternet(world);
    SCOPED_TRACE(testing::Message() << "seed=" << golden.seed);
    ForEachPool(ThreadCounts(), [&](common::ThreadPool* pool) {
      probing::ZmapSnapshot snapshot =
          probing::RunZmapScan(internet, internet.study_24s, nullptr, pool);
      EXPECT_EQ(SnapshotHash(snapshot), golden.hash);
      EXPECT_EQ(snapshot.ActiveCount(), golden.active);
      EXPECT_EQ(snapshot.blocks.size(), golden.candidates);
      EXPECT_EQ(probing::SelectStudyBlocks(snapshot).size(), golden.study);
    });
  }
}

// FNV-1a over a final block list: per block its member count and
// sorted member bases, then its hop count and sorted last hops, each
// 32-bit value little-endian.
std::uint64_t BlockListHash(std::span<const cluster::AggregateBlock> blocks) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash = (hash ^ ((value >> shift) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (const cluster::AggregateBlock& block : blocks) {
    fold(static_cast<std::uint32_t>(block.member_24s.size()));
    for (const Prefix& member : block.member_24s) fold(member.base().value());
    fold(static_cast<std::uint32_t>(block.last_hops.size()));
    for (Ipv4Address hop : block.last_hops) fold(hop.value());
  }
  return hash;
}

TEST(Campaign, GoldenChain) {
  // Pins the whole batch chain — measurement, exact aggregation, MCL,
  // reprobe validation, the validated merge and the HSNP image — for two
  // fixed worlds with no pool and at 1 and 4 threads.  Any restructuring
  // of a stage must reproduce these constants bit for bit.
  struct Golden {
    std::uint64_t seed;
    std::array<std::size_t, 5> classes;  // Table 1, Classification order
    std::size_t final_blocks;
    std::uint64_t block_hash, checksum;
  };
  const Golden kGolden[] = {
      {11, {460, 437, 489, 1204, 231}, 663, 0xf3412dbb5a25857fULL,
       0x3789ba39321f2fdbULL},
      {42, {546, 432, 467, 1198, 202}, 678, 0x12f991a2eb397c2dULL,
       0xb6ac0c3024382c7dULL},
  };
  for (const Golden& golden : kGolden) {
    InternetConfig world;
    world.seed = golden.seed;
    world.scale = 0.05;
    Internet internet = BuildInternet(world);
    SCOPED_TRACE(testing::Message() << "seed=" << golden.seed);
    ForEachPool({1, 4}, [&](common::ThreadPool* pool) {
      core::PipelineConfig config;
      config.seed = golden.seed;
      config.pool = pool;
      config.calibration_blocks = 200;
      config.samples_per_block = 32;
      core::PipelineResult pipeline = core::RunPipeline(internet, config);
      auto aggregates =
          cluster::AggregateIdentical(pipeline.HomogeneousBlocks());
      cluster::MclAggregationParams mcl_params;
      mcl_params.mcl.pool = pool;
      cluster::MclAggregationResult mcl =
          cluster::RunMclAggregation(aggregates, mcl_params);
      cluster::ValidationParams validation;
      validation.seed = golden.seed;
      validation.pool = pool;
      cluster::ValidateClusters(internet, pipeline.study_blocks, aggregates,
                                mcl, validation);
      auto blocks = cluster::MergeValidatedClusters(aggregates, mcl);
      std::string error;
      auto snapshot = serve::Snapshot::FromBuffer(
          serve::CompileSnapshotV2(
              blocks,
              serve::ClassifiedFrom(
                  std::span<const core::BlockResult>(pipeline.results)),
              golden.seed),
          &error);
      ASSERT_TRUE(snapshot.has_value()) << error;
      EXPECT_EQ(pipeline.classification_counts(), golden.classes);
      EXPECT_EQ(blocks.size(), golden.final_blocks);
      EXPECT_EQ(BlockListHash(blocks), golden.block_hash);
      EXPECT_EQ(snapshot->checksum(), golden.checksum);
    });
  }
}

TEST(DeterminismProperty, RunPipelineByteIdenticalAcrossThreadCounts) {
  // The null-pool (serial) run is the baseline for every pool size.
  Internet internet = BuildInternet(TinyConfig(23));
  std::string baseline;
  std::uint64_t baseline_probes = 0;
  ForEachPool(ThreadCounts(), [&](common::ThreadPool* pool) {
    core::PipelineConfig config;
    config.seed = 23;
    config.pool = pool;
    config.calibration_blocks = 40;
    config.samples_per_block = 32;
    core::PipelineResult result = core::RunPipeline(internet, config);
    std::ostringstream serialized;
    core::WriteResults(serialized, result.results);
    if (pool == nullptr) {
      baseline = serialized.str();
      baseline_probes = result.stats.probes_sent;
      ASSERT_FALSE(baseline.empty());
      return;
    }
    EXPECT_EQ(serialized.str(), baseline);
    EXPECT_EQ(result.stats.probes_sent, baseline_probes);
  });
}

TEST(DeterminismProperty, FastPathPipelineMatchesReferenceAcrossThreads) {
  // The measurement path (incremental grouping + one route memo per
  // prober) on a second world: the serial (null-pool) run is the
  // reference, and the full campaign output and packet count must match
  // it byte for byte at every thread count.
  Internet internet = BuildInternet(TinyConfig(37));
  core::PipelineConfig reference_config;
  reference_config.seed = 37;
  reference_config.calibration_blocks = 40;
  reference_config.samples_per_block = 32;
  core::PipelineResult reference =
      core::RunPipeline(internet, reference_config);
  std::ostringstream reference_serialized;
  core::WriteResults(reference_serialized, reference.results);
  ASSERT_FALSE(reference_serialized.str().empty());

  ForEachPool(ThreadCounts(), [&](common::ThreadPool* pool) {
    core::PipelineConfig config = reference_config;
    config.pool = pool;
    core::PipelineResult result = core::RunPipeline(internet, config);
    std::ostringstream serialized;
    core::WriteResults(serialized, result.results);
    EXPECT_EQ(serialized.str(), reference_serialized.str());
    EXPECT_EQ(result.stats.probes_sent, reference.stats.probes_sent);
  });
}

TEST(DeterminismProperty, RunMclByteIdenticalAcrossThreadCounts) {
  // Random graphs; clusters (and iteration counts) must not depend on
  // the thread count in any way.
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    Rng rng(seed);
    cluster::Graph graph;
    graph.vertex_count = 30 + static_cast<std::uint32_t>(rng.NextBelow(30));
    for (std::uint32_t i = 0; i < graph.vertex_count; ++i) {
      for (std::uint32_t j = i + 1; j < graph.vertex_count; ++j) {
        if (rng.NextBool(0.15)) graph.edges.push_back({i, j, rng.NextUnit()});
      }
    }
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    cluster::MclResult baseline;
    ForEachPool(ThreadCounts(), [&](common::ThreadPool* pool) {
      cluster::MclParams params;
      params.pool = pool;
      cluster::MclResult result = cluster::RunMcl(graph, params);
      if (pool == nullptr) {
        baseline = std::move(result);
        return;
      }
      EXPECT_EQ(result.clusters, baseline.clusters);
      EXPECT_EQ(result.iterations, baseline.iterations);
    });
  }
}

std::vector<cluster::AggregateBlock> RandomAggregates(std::uint64_t seed,
                                                      std::size_t count) {
  Rng rng(seed);
  std::vector<cluster::AggregateBlock> aggregates(count);
  for (std::size_t v = 0; v < count; ++v) {
    cluster::AggregateBlock& block = aggregates[v];
    block.member_24s.push_back(Prefix::Of(
        Ipv4Address(0x14000000u + static_cast<std::uint32_t>(v) * 256),
        24));
    const std::size_t hops = 1 + rng.NextBelow(6);
    for (std::size_t h = 0; h < hops; ++h) {
      block.last_hops.push_back(Ipv4Address(
          0x0A000000u + static_cast<std::uint32_t>(rng.NextBelow(40))));
    }
    std::sort(block.last_hops.begin(), block.last_hops.end());
    block.last_hops.erase(
        std::unique(block.last_hops.begin(), block.last_hops.end()),
        block.last_hops.end());
  }
  return aggregates;
}

TEST(DeterminismProperty, SimilarityGraphByteIdenticalAcrossThreadCounts) {
  auto aggregates = RandomAggregates(77, 120);
  cluster::Graph baseline = cluster::BuildSimilarityGraph(aggregates);
  ASSERT_GT(baseline.edges.size(), 0u);
  for (int threads : ThreadCounts()) {
    common::ThreadPool pool(threads);
    cluster::Graph graph = cluster::BuildSimilarityGraph(aggregates, &pool);
    ASSERT_EQ(graph.vertex_count, baseline.vertex_count);
    ASSERT_EQ(graph.edges.size(), baseline.edges.size())
        << "threads=" << threads;
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      EXPECT_EQ(graph.edges[e].a, baseline.edges[e].a);
      EXPECT_EQ(graph.edges[e].b, baseline.edges[e].b);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(graph.edges[e].weight, baseline.edges[e].weight)
          << "threads=" << threads << " edge " << e;
    }
  }
}

TEST(DeterminismProperty, ValidationByteIdenticalAcrossThreadCounts) {
  // Full chain on a tiny internet: aggregation, MCL, then reprobing
  // validation — verdicts and pair ratios must match bit for bit.
  Internet internet = BuildInternet(TinyConfig(31));
  core::PipelineConfig config;
  config.seed = 31;
  config.calibration_blocks = 40;
  config.samples_per_block = 32;
  core::PipelineResult pipeline = core::RunPipeline(internet, config);
  auto aggregates =
      cluster::AggregateIdentical(pipeline.HomogeneousBlocks());
  ASSERT_GT(aggregates.size(), 0u);

  std::vector<double> baseline_ratios;
  std::vector<bool> baseline_validated;
  ForEachPool(ThreadCounts(), [&](common::ThreadPool* pool) {
    cluster::MclAggregationParams mcl_params;
    mcl_params.mcl.pool = pool;
    cluster::MclAggregationResult mcl =
        cluster::RunMclAggregation(aggregates, mcl_params);
    cluster::ValidationParams validation;
    validation.pool = pool;
    cluster::ValidateClusters(internet, pipeline.study_blocks, aggregates,
                              mcl, validation);
    std::vector<double> ratios;
    std::vector<bool> validated;
    for (const auto& cluster : mcl.clusters) {
      ratios.push_back(cluster.identical_pair_ratio);
      validated.push_back(cluster.validated_homogeneous);
    }
    if (pool == nullptr) {
      baseline_ratios = std::move(ratios);
      baseline_validated = std::move(validated);
      return;
    }
    EXPECT_EQ(ratios, baseline_ratios);
    EXPECT_EQ(validated, baseline_validated);
  });
}

TEST(DeterminismProperty, FusedMclIterationByteIdenticalAcrossThreadCounts) {
  // MclIterate fuses expansion/inflation/pruning/renormalization into
  // one dispatch; the resulting matrix (and the convergence delta) must
  // be bit-identical for every thread count, column by column.  The
  // 80-column matrix (~0.5 k nonzeros) runs as one inline chunk; the
  // 400-column one (~2.8 k nonzeros) is above the inline threshold and
  // is split across the pool.
  for (std::uint32_t n : {80u, 400u}) {
    Rng rng(101);
    std::vector<cluster::SparseMatrix::Triplet> triplets;
    for (std::uint32_t c = 0; c < n; ++c) {
      triplets.push_back({c, c, 1.0});
      for (int k = 0; k < 6; ++k) {
        triplets.push_back({static_cast<std::uint32_t>(rng.NextBelow(n)), c,
                            rng.NextUnit()});
      }
    }
    cluster::SparseMatrix m =
        cluster::SparseMatrix::FromTriplets(n, std::move(triplets));
    m.NormalizeColumns();

    double baseline_delta = 0.0;
    cluster::SparseMatrix baseline =
        m.MclIterate(2.0, 1e-4, 16, nullptr, &baseline_delta);
    for (int threads : ThreadCounts()) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      common::ThreadPool pool(threads);
      double delta = 0.0;
      cluster::SparseMatrix result =
          m.MclIterate(2.0, 1e-4, 16, &pool, &delta);
      EXPECT_EQ(delta, baseline_delta);
      ASSERT_EQ(result.nonzeros(), baseline.nonzeros());
      for (std::uint32_t c = 0; c < n; ++c) {
        auto rc = result.Column(c);
        auto bc = baseline.Column(c);
        ASSERT_EQ(rc.count, bc.count) << "col " << c;
        for (std::size_t i = 0; i < rc.count; ++i) {
          ASSERT_EQ(rc.rows[i], bc.rows[i]);
          ASSERT_EQ(rc.values[i], bc.values[i])
              << "col " << c << " entry " << i;
        }
      }
    }
  }
}

TEST(Concurrency, RapidSmallDispatchStress) {
  // Thousands of back-to-back sub-millisecond dispatches exercise the
  // spin/park handoff from every angle TSan can observe: job
  // publication, the epoch bump, worker wake/park races against the
  // dispatcher, and the caller-side completion wait.  Mixes chunk sizes
  // so workers alternate between participating and sitting out a job.
  common::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  common::PerShard<std::uint64_t> scratch(
      static_cast<std::size_t>(pool.thread_count()));
  for (int round = 0; round < 2000; ++round) {
    const std::size_t count = static_cast<std::size_t>(round % 9);
    pool.ForEachChunk(count, 1, [&](common::ChunkRange chunk) {
      // Unsynchronized per-shard scratch: TSan verifies no two workers
      // ever share a slot.
      *scratch[chunk.shard] += chunk.size();
      sum.fetch_add(chunk.size(), std::memory_order_relaxed);
    });
    expected += count;
  }
  EXPECT_EQ(sum.load(), expected);
  std::uint64_t scratch_total = 0;
  for (const auto& slot : scratch) scratch_total += *slot;
  EXPECT_EQ(scratch_total, expected);
}

}  // namespace
}  // namespace hobbit::netsim
