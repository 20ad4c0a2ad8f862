#include "stream/stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/arena.h"
#include "common/parallel.h"
#include "serve/snapshot.h"

namespace hobbit::stream {
namespace {

/// One probed block travelling probe→aggregate.  Carries the full
/// BlockResult (observations included) — exactly the payload whose
/// resident count the queue bounds.
struct ResultItem {
  std::size_t index = 0;
  core::BlockResult result;
};

/// The consumer stage: classification tally, per-/24 records, §5
/// identical-last-hop grouping, and snapshot publishing.  Single-owner
/// state — only the aggregator thread touches it until Join.
class Aggregator {
 public:
  Aggregator(const StreamConfig& config, StreamResult* out)
      : config_(config), out_(out) {}

  void Consume(ResultItem item) {
    // Take ownership so the observation buffers die at scope exit; only
    // the compact record survives.
    core::BlockResult result = std::move(item.result);
    out_->classification_counts[static_cast<std::size_t>(
        result.classification)]++;
    records_[result.prefix.base().value()] =
        StreamRecord{result.prefix, result.classification,
                     result.probes_used};
    if (core::IsHomogeneous(result.classification) &&
        !result.last_hop_set.empty()) {
      // Member lists live in the arena: growth is a pointer bump (a
      // segment chain, so no reallocation copies either) and the whole
      // per-campaign state is freed in one shot.  The map node itself
      // stays heap-side — it owns the non-trivially-destructible key.
      auto [it, inserted] = groups_.try_emplace(result.last_hop_set, nullptr);
      if (inserted) {
        void* slot = arena_.Allocate(sizeof(MemberList), alignof(MemberList));
        it->second = new (slot) MemberList(&arena_);
      }
      it->second->push_back(result.prefix);
    }
    ++since_publish_;
    if (config_.store != nullptr && config_.publish_every > 0 &&
        since_publish_ >= config_.publish_every) {
      Publish();
      since_publish_ = 0;
    }
  }

  /// Final state: records/blocks into the result, the closing publish,
  /// and the final snapshot bytes.
  void Finish() {
    out_->records.reserve(records_.size());
    for (const auto& [key, record] : records_) out_->records.push_back(record);
    out_->blocks = BuildBlocks();
    out_->stats.aggregator_arena_reserved_bytes = arena_.reserved_bytes();
    if (config_.store != nullptr) {
      // Publish the final state unless the last periodic publish already
      // covered it (then the served snapshot IS the final state).
      if (since_publish_ > 0 || out_->stats.publishes == 0) Publish();
      if (std::shared_ptr<const serve::Snapshot> current =
              config_.store->Current()) {
        std::span<const std::byte> bytes = current->bytes();
        out_->final_snapshot.assign(bytes.begin(), bytes.end());
      }
    } else {
      out_->final_snapshot = serve::CompileSnapshotV2(
          out_->blocks, Classified(), config_.epoch_base);
      out_->stats.publishes++;
    }
  }

 private:
  /// The groups lowered into cluster::AggregateIdentical's canonical
  /// order (cluster::SortCanonical).  Keyed maps make this arrival-order
  /// independent.
  std::vector<cluster::AggregateBlock> BuildBlocks() const {
    std::vector<cluster::AggregateBlock> blocks;
    blocks.reserve(groups_.size());
    for (const auto& [set, members] : groups_) {
      cluster::AggregateBlock block;
      block.last_hops = set;
      block.member_24s.reserve(members->size());
      members->AppendTo(block.member_24s);
      blocks.push_back(std::move(block));
    }
    cluster::SortCanonical(blocks);
    return blocks;
  }

  std::vector<serve::ClassifiedPrefix> Classified() const {
    std::vector<serve::ClassifiedPrefix> classified;
    classified.reserve(records_.size());
    for (const auto& [key, record] : records_) {
      classified.push_back(
          {record.prefix,
           static_cast<std::uint8_t>(record.classification)});
    }
    return classified;
  }

  void Publish() {
    StreamStats& stats = out_->stats;
    std::optional<serve::Snapshot> snapshot =
        serve::Snapshot::FromBuffer(serve::CompileSnapshotV2(
            BuildBlocks(), Classified(), config_.epoch_base + stats.publishes));
    if (!snapshot) {
      stats.publish_failures++;
      return;
    }
    config_.store->Swap(
        std::make_shared<const serve::Snapshot>(*std::move(snapshot)));
    stats.publishes++;
  }

  /// Arena-resident growable member list (netsim::Prefix is trivially
  /// destructible, so it satisfies the arena's no-destructor rule).
  using MemberList = common::ArenaVector<netsim::Prefix>;

  const StreamConfig& config_;
  StreamResult* out_;
  /// Per-group /24 member lists, bump-allocated in arena_.  This is the
  /// aggregator's retained (per-campaign) state; the *in-flight* probe
  /// results stay bounded by the queue exactly as before — the PR 7
  /// residency assertion (peak_inflight_results <= inflight_bound) is
  /// re-checked by tests/test_stream.cpp and gated by bench_stream.
  common::Arena arena_{
      common::Arena::Options{common::Arena::kDefaultChunkBytes,
                             /*huge_pages=*/true}};
  std::map<std::vector<netsim::Ipv4Address>, MemberList*> groups_;
  std::map<std::uint32_t, StreamRecord> records_;
  std::size_t since_publish_ = 0;
};

}  // namespace

StreamResult RunStreamCampaign(const netsim::Internet& internet,
                               const StreamConfig& config) {
  const netsim::Simulator* simulator = internet.simulator.get();
  const core::PipelineConfig& campaign = config.campaign;
  const std::size_t threads =
      static_cast<std::size_t>(common::ThreadCount(campaign.pool));
  core::CampaignSetup setup =
      core::PrepareCampaign(internet, campaign, simulator);

  StreamResult result;
  result.stats.setup = setup.stats;
  result.stats.measured_24s = setup.study_blocks.size();

  common::BoundedQueue<ResultItem> queue(config.window);
  // The O(in-flight) guarantee: at most `capacity` queued results plus
  // one under construction per worker plus one being consumed.  (The
  // queue clamps capacity 0 to 1, hence capacity() not config.window.)
  result.stats.inflight_bound = queue.capacity() + threads + 1;
  std::atomic<std::size_t> inflight{0};
  std::atomic<std::size_t> peak_inflight{0};

  Aggregator aggregator(config, &result);
  std::thread consumer([&] {
    while (std::optional<ResultItem> item = queue.Pop()) {
      aggregator.Consume(*std::move(item));
      inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  });

  const auto measurement_start = std::chrono::steady_clock::now();
  common::PerShard<std::uint64_t> probes(threads);
  const std::size_t total = setup.study_blocks.size();
  const std::size_t segment =
      config.segment == 0 ? (total == 0 ? 1 : total) : config.segment;
  std::size_t done = 0;
  std::size_t segment_index = 0;
  while (done < total) {
    if (segment_index > 0 && config.on_segment_boundary) {
      // No probe is in flight here (the previous wave's ForEachChunk has
      // returned), so the callback may mutate the world.
      config.on_segment_boundary(segment_index);
    }
    const std::size_t count = std::min(segment, total - done);
    const std::size_t base = done;
    common::ForEachChunk(campaign.pool, count, 1,
                         [&](common::ChunkRange chunk) {
      core::BlockProber prober(simulator, &setup.table, campaign.prober);
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        const std::size_t index = base + i;
        const std::size_t now =
            inflight.fetch_add(1, std::memory_order_relaxed) + 1;
        std::size_t peak = peak_inflight.load(std::memory_order_relaxed);
        while (now > peak && !peak_inflight.compare_exchange_weak(
                                 peak, now, std::memory_order_relaxed)) {
        }
        ResultItem item;
        item.index = index;
        item.result = prober.ProbeBlock(setup.study_blocks[index],
                                        core::MeasurementRng(campaign.seed,
                                                             index));
        // Push parks here when the aggregator lags — the backpressure
        // that bounds resident observations.
        queue.Push(std::move(item));
      }
      *probes[chunk.shard] += prober.probes_sent();
    });
    done += count;
    ++segment_index;
  }
  queue.Close();
  consumer.join();

  result.stats.probes_sent = common::SumShards(probes);
  result.stats.measurement_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    measurement_start)
          .count();
  result.stats.peak_inflight_results =
      peak_inflight.load(std::memory_order_relaxed);
  result.stats.results_queue = queue.counters();

  aggregator.Finish();
  return result;
}

}  // namespace hobbit::stream
