// stream.h — the streaming campaign: bounded-memory pipeline stages.
//
// The batch pipeline (hobbit/pipeline.h) materializes every /24's full
// BlockResult — observations included — before anything downstream runs,
// so a campaign's resident set is O(world).  The streaming driver keeps
// the same stages but runs them as producers and a consumer joined by a
// fixed-capacity queue (common/bounded_queue.h):
//
//   driver ──ForEachChunk──▶ probe workers ──BoundedQueue──▶ aggregator
//   (segments of the          (stage 2, on the   (capacity =   (grouping +
//    study list)               caller's pool)     window)       classify +
//                                                               aggregate +
//                                                               publish)
//
// The aggregator consumes each BlockResult as it arrives: it keeps the
// classification tally, the per-/24 record, and the identical-last-hop
// groups (hobbit §5), then *drops the observations*.  Backpressure does
// the rest: a worker that outruns the aggregator parks in Push, so the
// number of full BlockResults resident at any instant is bounded by
//
//   window + worker threads + 1 (the item being consumed)
//
// regardless of world size — the O(in-flight) guarantee, asserted by
// bench_stream and StreamStats::peak_inflight_results.
//
// Determinism: measurement inputs come from core::PrepareCampaign and
// every /24 is probed with core::MeasurementRng(seed, index), so each
// classification is a pure function of (world-at-its-segment, seed,
// index) — bit-identical to the batch pipeline and invariant under
// thread count and arrival order.  The aggregator's state is keyed maps,
// so its final state, and with it the final snapshot, is arrival-order
// independent too.  Intermediate publishes are not: each one cuts the
// stream after the next `publish_every` blocks in arrival order, so
// which /24s an intermediate snapshot holds can vary from run to run.
//
// Publishing: with a SnapshotStore attached the aggregator publishes the
// evolving state every `publish_every` classified blocks, and the final
// state at the end, while readers keep querying through the store's RCU
// swap.  Every publish is one full CompileSnapshotV2 of the state, a
// verifying Snapshot::FromBuffer and SnapshotStore::Swap, so the served
// bytes are the compiled bytes by construction.
//
// Churn: `on_segment_boundary` fires between probe waves with no probe
// in flight; it may mutate the topology (scenario::InjectRouteChurn
// flips ECMP next-hop orders, bumping Topology::mutation_epoch so route
// memos re-resolve).  Segment boundaries sit at fixed indices, so
// churned campaigns stay thread-count invariant.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/aggregate.h"
#include "common/bounded_queue.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "serve/store.h"

namespace hobbit::stream {

struct StreamConfig {
  /// The campaign the stream measures: seed, stage-0/1 knobs, prober
  /// options, and the caller's pool the probe workers run on (null
  /// probes serially on the calling thread).  A stream and a batch run of
  /// the same `campaign` classify every /24 identically.  The aggregator
  /// runs on its own dedicated thread either way.
  core::PipelineConfig campaign;

  /// Capacity of the probe→aggregate queue.  The in-flight bound —
  /// the most full BlockResults ever resident — is
  /// window + worker threads + 1.
  std::size_t window = 256;
  /// Blocks per probe wave; the segment boundary callback fires between
  /// waves.  0 = one wave over the whole study list (no boundaries).
  std::size_t segment = 0;
  /// Publish a snapshot every this many classified blocks (requires
  /// `store`); 0 = publish only the final state.
  std::size_t publish_every = 0;
  /// Destination of the published snapshots; null = no live publishing
  /// (the final snapshot is still compiled into StreamResult).
  serve::SnapshotStore* store = nullptr;
  /// Epoch of the first published snapshot; each further publish
  /// increments by one.
  std::uint64_t epoch_base = 1;
  /// Called between probe waves (segment index 1, 2, ...) with no probe
  /// in flight; may mutate the world (e.g. InjectRouteChurn).
  std::function<void(std::size_t)> on_segment_boundary;
};

/// Per-stage counters of one streaming campaign.
struct StreamStats {
  /// Stage-0/1 numbers from PrepareCampaign (snapshot_* / calibration).
  core::PipelineStats setup;
  std::size_t measured_24s = 0;
  std::uint64_t probes_sent = 0;  ///< measurement stage only
  /// Most full BlockResults resident at once, and the configured cap.
  std::size_t peak_inflight_results = 0;
  std::size_t inflight_bound = 0;
  /// Probe→aggregate queue telemetry (backpressure visibility).
  common::QueueCounters results_queue;
  std::size_t publishes = 0;         ///< snapshots published
  std::size_t publish_failures = 0;  ///< a compile failed to load (bug)
  /// High-water capacity of the aggregator's member-list arena — the
  /// retained per-group state, bump-allocated instead of malloc'd.
  std::size_t aggregator_arena_reserved_bytes = 0;
  double measurement_seconds = 0.0;
};

/// The compact per-/24 outcome the aggregator retains (observations are
/// dropped at consumption — that is the whole point).
struct StreamRecord {
  netsim::Prefix prefix;
  core::Classification classification = core::Classification::kTooFewActive;
  int probes_used = 0;
};

struct StreamResult {
  /// Every measured /24, sorted by prefix.
  std::vector<StreamRecord> records;
  /// Identical-last-hop aggregates of the final state, in
  /// cluster::AggregateIdentical's canonical order.
  std::vector<cluster::AggregateBlock> blocks;
  /// Tally per core::Classification value.
  std::array<std::size_t, 5> classification_counts{};
  /// The final published snapshot (HSNP bytes).  With a store attached
  /// this is what the store serves after the last publish; without one
  /// it is compiled directly.
  std::vector<std::byte> final_snapshot;
  StreamStats stats;
};

/// Runs a full streaming campaign over `internet`'s study universe.
/// Deterministic in (config.campaign.seed, world, segment/churn
/// schedule); the records, blocks and final snapshot are invariant under
/// thread count and queue timing.
StreamResult RunStreamCampaign(const netsim::Internet& internet,
                               const StreamConfig& config);

}  // namespace hobbit::stream
