// bench_serve — serving-layer lookup throughput.
//
// Compiles the shared world's final block list into a snapshot, then
// measures the lookup engine: single-threaded exact lookups, batched
// lookups across thread counts, and covering queries.  The ROADMAP
// target is >= 1M lookups/sec on the seed-scale snapshot; the query mix
// is half hits (member /24s) and half misses (shifted keys), shuffled
// deterministically, which is the unfriendliest realistic case for the
// branch predictor.
//
// The snapshot is also round-tripped through a v2 file and served twice
// — owned buffer versus mmap (hobbit_serve --mmap) — with identical
// answers required and a throughput floor on the mapped path (it reads
// the same bytes out of the page cache; only first-touch differs, and
// bench_lookup_layout gates that cold-start win on a 64MB+ snapshot).
//
// Exit codes follow bench_cluster_scaling: 0 ok, 1 batched or mmap
// answers disagree with serial owned-buffer lookups, 2 scaling-gate
// failure, 3 mmap throughput floor, 77 scaling gates skipped
// (single-core machine — the report says "skipped-1core" instead of
// letting the vacuous 0.4x collapse floors count as a pass).  The gates
// are hardware-aware (see RequiredSpeedup): within the machine's core
// count a batched run must not lose to the 1-thread batch (the chunked
// scheduler's grain keeps dispatch overhead out of small batches, so
// extra threads must be free or better); oversubscribed thread counts
// only guard against pathological collapse, since time-slicing one core
// across N workers cannot win.  Each gated time (a thread count's batch,
// mapped and owned serial lookups) is the median of 5 passes after a
// warm pass.  `--quick` shrinks the world to smoke scale (unless
// HOBBIT_SCALE pins it) and pads the floors for noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/parallel.h"
#include "netsim/rng.h"
#include "serve/lookup.h"
#include "serve/snapshot.h"

namespace {

using namespace hobbit;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Timed passes per measurement; the gates read their median, so one
/// pass slowed by a neighbouring process does not decide them.
constexpr int kTimedPasses = 5;

double Median(std::vector<double> seconds) {
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                   seconds.end());
  return seconds[seconds.size() / 2];
}

/// Minimum acceptable `batch_1t / batch_Nt` ratio on `hw` cores.
double RequiredSpeedup(int threads, unsigned hw, bool quick) {
  const unsigned cores = std::max(hw, 1u);
  if (threads <= 1) return 0.0;  // 1t is the baseline
  if (static_cast<unsigned>(threads) <= cores) {
    // No-loss floor: adding threads within the core budget must never
    // cost throughput (quick mode leaves headroom for smoke-scale
    // noise, where a run is only a few milliseconds).
    return quick ? 0.85 : 0.95;
  }
  return 0.4;  // oversubscribed: only flag a collapse
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (quick) ::setenv("HOBBIT_SCALE", "0.05", /*overwrite=*/0);

  bench::PrintHeader("serve lookup throughput",
                     "serving layer (no paper figure)");
  const unsigned hw = std::thread::hardware_concurrency();
  const bench::World& world = bench::GetWorld();
  bench::JsonReporter report("serve");
  report.Config("scale", world.scale);
  report.Config("seed", static_cast<double>(world.seed));
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");

  auto buffer = serve::CompileSnapshotV2(
      world.final_blocks,
      serve::ClassifiedFrom(
          std::span<const core::BlockResult>(world.pipeline.results)),
      world.seed);
  std::string error;
  auto snapshot = serve::Snapshot::FromBuffer(std::move(buffer), &error);
  if (!snapshot) {
    std::printf("snapshot compile failed: %s\n", error.c_str());
    return 1;
  }
  serve::LookupEngine engine(*snapshot);
  std::printf("snapshot: %zu entries, %zu blocks, %zu bytes\n",
              snapshot->entry_count(), snapshot->block_count(),
              snapshot->buffer_bytes());

  // Query mix: every entry once as a hit and once shifted as a miss,
  // repeated until the target count, then shuffled.
  std::vector<std::uint32_t> queries;
  const std::size_t target = quick ? (1 << 20) : (1 << 22);
  while (queries.size() < target) {
    for (std::size_t i = 0; i < snapshot->entry_count(); ++i) {
      queries.push_back(snapshot->EntryKey(i));
      queries.push_back(snapshot->EntryKey(i) ^ 0x00800000u);
    }
    if (snapshot->entry_count() == 0) break;
  }
  netsim::Rng rng(7);
  for (std::size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.NextBelow(i)]);
  }

  // Single-threaded, one call per query; doubles as the answer key the
  // batched runs are checked against.
  std::vector<serve::LookupResult> reference(queries.size());
  std::size_t hits = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    reference[i] = engine.Lookup(netsim::Ipv4Address(queries[i]));
    hits += reference[i].found ? 1 : 0;
  }
  double elapsed = Seconds(start);
  std::printf("single-thread : %8.0f klookups/s  (%zu/%zu hits, %.3fs)\n",
              queries.size() / elapsed / 1e3, hits, queries.size(),
              elapsed);
  report.Metric("entries", static_cast<double>(snapshot->entry_count()));
  report.Metric("queries", static_cast<double>(queries.size()));
  report.Metric("single_thread_lookups_per_s", queries.size() / elapsed);

  // Batched across thread counts, gated against the 1-thread batch.
  std::vector<serve::LookupResult> answers(queries.size());
  double batch_1t = 0.0;
  bool all_identical = true;
  bool gates_pass = true;
  for (int threads : {1, 2, 4, 8}) {
    common::ThreadPool pool(threads);
    // One untimed pass warms the pool's workers and caches.
    engine.LookupBatch(queries, answers, &pool);
    std::vector<double> passes;
    for (int pass = 0; pass < kTimedPasses; ++pass) {
      start = std::chrono::steady_clock::now();
      engine.LookupBatch(queries, answers, &pool);
      passes.push_back(Seconds(start));
      for (std::size_t i = 0; i < answers.size(); ++i) {
        if (answers[i].found != reference[i].found ||
            answers[i].block != reference[i].block) {
          all_identical = false;
          break;
        }
      }
    }
    elapsed = Median(passes);
    if (threads == 1) batch_1t = elapsed;
    const double speedup = batch_1t / elapsed;
    const double required = RequiredSpeedup(threads, hw, quick);
    const bool pass = speedup >= required;
    gates_pass = gates_pass && pass;
    std::printf("batch %2d thr  : %8.0f klookups/s  (%5.2fx vs 1t, %.3fs)%s\n",
                threads, queries.size() / elapsed / 1e3, speedup, elapsed,
                pass ? "" : "  BELOW GATE");
    const std::string tag = "batch_" + std::to_string(threads) + "t";
    report.Metric(tag + "_lookups_per_s", queries.size() / elapsed);
    report.Metric(tag + "_speedup", speedup);
    report.Metric(tag + "_required_speedup", required);
  }
  // The serve tier's BATCH path as LineService actually runs it: an
  // Eytzinger index built once over the snapshot, the engine descending
  // it kBatchWidth keys in lockstep (LookupBatch's indexed branch).
  // Identity against the serial unindexed reference is enforced; the
  // throughput ratio is reported here and floor-gated at out-of-cache
  // size in bench_lookup_layout (this snapshot is usually cache-warm,
  // where overlapping misses buys little by construction).
  {
    const serve::EytzingerIndex index = serve::EytzingerIndex::Build(*snapshot);
    serve::LookupEngine indexed(*snapshot, &index);
    start = std::chrono::steady_clock::now();
    indexed.LookupBatch(queries, answers, nullptr);
    elapsed = Seconds(start);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (answers[i].found != reference[i].found ||
          answers[i].block != reference[i].block ||
          answers[i].class_token != reference[i].class_token) {
        all_identical = false;
        break;
      }
    }
    const double ratio = batch_1t / elapsed;
    std::printf("batch indexed : %8.0f klookups/s  (%5.2fx vs 1t unindexed)\n",
                queries.size() / elapsed / 1e3, ratio);
    report.Metric("indexed_batch_lookups_per_s", queries.size() / elapsed);
    report.Metric("indexed_batch_ratio", ratio);
  }

  // Covering queries: one per distinct /16 in the entry set.
  std::vector<netsim::Prefix> sixteens;
  for (std::size_t i = 0; i < snapshot->entry_count(); ++i) {
    netsim::Prefix p = netsim::Prefix::Of(
        netsim::Ipv4Address(snapshot->EntryKey(i)), 16);
    if (sixteens.empty() || !(sixteens.back() == p)) sixteens.push_back(p);
  }
  std::size_t covered = 0;
  start = std::chrono::steady_clock::now();
  const int cover_rounds = quick ? 50 : 200;
  for (int round = 0; round < cover_rounds; ++round) {
    for (const auto& p : sixteens) {
      covered += engine.Covering(p).size();
    }
  }
  elapsed = Seconds(start);
  std::printf(
      "covering /16  : %8.0f kqueries/s  (%zu /16s, %.1f entries avg)\n",
      cover_rounds * sixteens.size() / elapsed / 1e3, sixteens.size(),
      sixteens.empty()
          ? 0.0
          : static_cast<double>(covered) / (cover_rounds * sixteens.size()));
  report.Metric("covering_queries_per_s",
                cover_rounds * sixteens.size() / elapsed);

  // mmap zero-copy serving: the same state as a v2 file, mapped with
  // deferred verification (hobbit_serve --mmap) and re-queried.  Must
  // answer identically and hold >= 0.9x of the owned-buffer throughput
  // (one warm pass absorbs first-touch faults; cold start is gated at
  // size in bench_lookup_layout).
  const double require_mmap_ratio = 0.9;
  double mmap_ratio = 1.0;
  {
    auto v2 = serve::CompileSnapshotV2(
        world.final_blocks,
        serve::ClassifiedFrom(
            std::span<const core::BlockResult>(world.pipeline.results)),
        world.seed);
    const std::string path = "/tmp/hobbit_bench_serve.hsnp";
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr ||
        std::fwrite(v2.data(), 1, v2.size(), out) != v2.size()) {
      std::printf("cannot write %s\n", path.c_str());
      if (out != nullptr) std::fclose(out);
      return 1;
    }
    std::fclose(out);
    serve::SnapshotLoadOptions mmap_options;
    mmap_options.use_mmap = true;
    mmap_options.defer_verification = true;
    auto mapped = serve::Snapshot::FromFile(path, &error, mmap_options);
    std::remove(path.c_str());
    if (!mapped) {
      std::printf("mmap load failed: %s\n", error.c_str());
      return 1;
    }
    serve::LookupEngine mapped_engine(*mapped);
    std::size_t mapped_hits = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {  // warm + identity
      serve::LookupResult r =
          mapped_engine.Lookup(netsim::Ipv4Address(queries[i]));
      if (r.found != reference[i].found || r.block != reference[i].block) {
        all_identical = false;
        break;
      }
    }
    // Mapped and owned passes alternate, so both see the same neighbours.
    auto serial_pass = [&](const serve::LookupEngine& served) {
      start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        mapped_hits += served.Lookup(netsim::Ipv4Address(queries[i])).found;
      }
      return Seconds(start);
    };
    std::vector<double> mapped_passes, owned_passes;
    for (int pass = 0; pass < kTimedPasses; ++pass) {
      mapped_passes.push_back(serial_pass(mapped_engine));
      owned_passes.push_back(serial_pass(engine));
    }
    const double mapped_elapsed = Median(mapped_passes);
    mmap_ratio = Median(owned_passes) / mapped_elapsed;
    std::printf("mmap serving  : %8.0f klookups/s  (%5.2fx vs owned%s, "
                "%zu hits)\n",
                queries.size() / mapped_elapsed / 1e3, mmap_ratio,
                mapped->is_mapped() ? "" : ", read fallback",
                mapped_hits / (2 * kTimedPasses));
    report.Metric("mmap_lookups_per_s", queries.size() / mapped_elapsed);
    report.Metric("mmap_throughput_ratio", mmap_ratio);
    report.Metric("mmap_mapped", mapped->is_mapped() ? 1.0 : 0.0);
  }
  report.Config("require_mmap_ratio", require_mmap_ratio);

  // On one core the batch floors are vacuous collapse guards; report
  // them as skipped rather than passed.
  const bool scaling_meaningful = hw > 1;
  report.Metric("identical", all_identical ? 1.0 : 0.0);
  report.Metric("gates_pass",
                (gates_pass && mmap_ratio >= require_mmap_ratio) ? 1.0 : 0.0);
  report.Metric("scaling_gates",
                scaling_meaningful ? std::string("enforced")
                                   : std::string("skipped-1core"));
  report.Write();

  if (!all_identical) {
    std::printf("\nbatched/mmap lookups DISAGREE with serial lookups (bug!)\n");
    return 1;
  }
  if (mmap_ratio < require_mmap_ratio) {
    std::printf("\nmmap throughput gate FAILED (%.2fx < %.2fx)\n", mmap_ratio,
                require_mmap_ratio);
    return 3;
  }
  if (!scaling_meaningful) {
    std::printf("\nbatched == serial; scaling gates SKIPPED (threads_hw=1)\n");
    return 77;
  }
  if (!gates_pass) {
    std::printf("\nscaling gate FAILED (threads_hw=%u; see table)\n", hw);
    return 2;
  }
  std::printf("\nbatched == serial; scaling gates passed (threads_hw=%u)\n",
              hw);
  return 0;
}
