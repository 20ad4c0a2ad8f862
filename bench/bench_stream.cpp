// bench_stream — bounded-memory + throughput gates for the streaming
// campaign subsystem (src/stream).
//
// The streaming driver promises two things over the batch pipeline:
//
//   1. O(in-flight) residency: the number of full BlockResults alive at
//      once is capped at window + worker threads + 1, independent of
//      world size.  Gate: peak_inflight_results <= inflight_bound
//      (exit 2 on violation).
//   2. Identical output: per-/24 classifications match the batch
//      pipeline bit for bit, every publish loads and is served (no
//      publish failure, and the store's generation counts the
//      publishes), and the final served snapshot is byte-identical to a
//      CompileSnapshotV2 of the batch run's blocks and results (exit 1
//      on any divergence).
//
// The streaming run happens FIRST so its ru_maxrss high-water mark is
// not polluted by the batch reference run that follows; the reported
// rss_batch_kb then shows what the batch path adds on top.  Results go
// to BENCH_stream.json.  `--quick` (the `perf` ctest label) runs the
// same gates at tiny scale in a few seconds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "common.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "stream/stream.h"

namespace {

using namespace hobbit;

long MaxRssKb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::uint64_t seed = bench::WorldSeed();
  const double scale = quick ? 0.02 : bench::WorldScale();
  const int threads = quick ? 2 : 4;
  const std::size_t window = quick ? 8 : 64;
  const std::size_t publish_every = quick ? 40 : 400;

  bench::PrintHeader("stream",
                     "engineering: bounded-memory streaming + live publish");
  bench::JsonReporter report("stream");
  report.Config("seed", static_cast<double>(seed));
  report.Config("scale", scale);
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("threads", threads);
  report.Config("window", static_cast<double>(window));
  report.Config("publish_every", static_cast<double>(publish_every));

  netsim::InternetConfig world_config;
  world_config.seed = seed;
  world_config.scale = scale;
  netsim::Internet internet = netsim::BuildInternet(world_config);

  const int calibration_blocks =
      std::max(20, static_cast<int>(1200 * scale));
  const int samples_per_block = 16;

  // One campaign for both runs, on one pool built outside both timers.
  common::ThreadPool pool(threads);
  core::PipelineConfig batch_config;
  batch_config.seed = seed;
  batch_config.pool = &pool;
  batch_config.calibration_blocks = calibration_blocks;
  batch_config.samples_per_block = samples_per_block;

  // --- streaming run (first, so ru_maxrss is its own high-water mark).
  serve::SnapshotStore store;
  stream::StreamConfig stream_config;
  stream_config.campaign = batch_config;
  stream_config.window = window;
  stream_config.publish_every = publish_every;
  stream_config.store = &store;

  auto t0 = std::chrono::steady_clock::now();
  stream::StreamResult streamed =
      stream::RunStreamCampaign(internet, stream_config);
  auto t1 = std::chrono::steady_clock::now();
  const double stream_seconds = std::chrono::duration<double>(t1 - t0).count();
  const long rss_stream_kb = MaxRssKb();

  const stream::StreamStats& stats = streamed.stats;
  const double blocks_per_second =
      stats.measured_24s / std::max(1e-9, stream_seconds);
  std::printf("stream: %zu /24s in %.3fs (%.0f blocks/s), "
              "peak in-flight %zu (bound %zu), rss %ld KiB\n",
              stats.measured_24s, stream_seconds, blocks_per_second,
              stats.peak_inflight_results, stats.inflight_bound,
              rss_stream_kb);
  std::printf("publishes: %zu, failures %zu, store generation %llu\n",
              stats.publishes, stats.publish_failures,
              static_cast<unsigned long long>(store.generation()));

  // --- batch reference: same stages, O(world) residency.
  auto t2 = std::chrono::steady_clock::now();
  core::PipelineResult batch = core::RunPipeline(internet, batch_config);
  auto t3 = std::chrono::steady_clock::now();
  const double batch_seconds = std::chrono::duration<double>(t3 - t2).count();
  const long rss_batch_kb = MaxRssKb();
  std::printf("batch reference: %zu /24s in %.3fs, process rss now %ld KiB "
              "(+%ld over streaming)\n",
              batch.results.size(), batch_seconds, rss_batch_kb,
              rss_batch_kb - rss_stream_kb);

  // --- gates.
  std::size_t classification_mismatches = 0;
  std::map<std::uint32_t, const core::BlockResult*> by_key;
  for (const core::BlockResult& r : batch.results) {
    by_key[r.prefix.base().value()] = &r;
  }
  if (streamed.records.size() != batch.results.size()) {
    classification_mismatches +=
        std::max(streamed.records.size(), batch.results.size()) -
        std::min(streamed.records.size(), batch.results.size());
  }
  for (const stream::StreamRecord& record : streamed.records) {
    auto pos = by_key.find(record.prefix.base().value());
    if (pos == by_key.end() ||
        record.classification != pos->second->classification ||
        record.probes_used != pos->second->probes_used) {
      ++classification_mismatches;
    }
  }

  std::vector<std::byte> full_reference = serve::CompileSnapshotV2(
      cluster::AggregateIdentical(batch.HomogeneousBlocks()),
      serve::ClassifiedFrom(std::span<const core::BlockResult>(batch.results)),
      stream_config.epoch_base + stats.publishes - 1);
  const bool snapshot_identical = streamed.final_snapshot == full_reference;
  const bool inflight_ok =
      stats.peak_inflight_results <= stats.inflight_bound;
  const bool publish_chain_ok = stats.publish_failures == 0 &&
                                store.generation() == stats.publishes;

  report.Metric("measured_24s", static_cast<double>(stats.measured_24s));
  report.Metric("stream_seconds", stream_seconds);
  report.Metric("batch_seconds", batch_seconds);
  report.Metric("blocks_per_second", blocks_per_second);
  report.Metric("probes", static_cast<double>(stats.probes_sent));
  report.Metric("peak_inflight", static_cast<double>(stats.peak_inflight_results));
  report.Metric("inflight_bound", static_cast<double>(stats.inflight_bound));
  report.Metric("queue_push_waits",
                static_cast<double>(stats.results_queue.push_waits));
  report.Metric("queue_pop_waits",
                static_cast<double>(stats.results_queue.pop_waits));
  report.Metric("publishes", static_cast<double>(stats.publishes));
  report.Metric("rss_stream_kb", static_cast<double>(rss_stream_kb));
  report.Metric("rss_batch_kb", static_cast<double>(rss_batch_kb));
  report.Metric("classification_mismatches",
                static_cast<double>(classification_mismatches));
  report.Metric("snapshot_identical", snapshot_identical ? 1.0 : 0.0);
  report.Metric("inflight_bounded", inflight_ok ? 1.0 : 0.0);
  report.Write();

  std::printf("classifications stream vs batch: %s\n",
              classification_mismatches == 0
                  ? "identical"
                  : "MISMATCH (bug!)");
  std::printf("final snapshot vs full compile: %s\n",
              snapshot_identical ? "byte-identical" : "MISMATCH (bug!)");
  std::printf("publish chain: %s\n",
              publish_chain_ok ? "every publish served" : "FAILED (bug!)");
  std::printf("in-flight bound: %s\n",
              inflight_ok ? "held" : "EXCEEDED (bug!)");
  if (classification_mismatches > 0 || !snapshot_identical ||
      !publish_chain_ok) {
    return 1;
  }
  if (!inflight_ok) return 2;
  return 0;
}
