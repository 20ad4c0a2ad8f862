// bench_lookup_layout — raw layout microbenchmarks for the serving-layer
// exact-/24 search and the snapshot storage path.
//
// Part 1: Eytzinger (BFS heap order, serve::EytzingerIndex) versus plain
// sorted-array binary search (std::lower_bound), over synthetic key
// arrays far larger than cache.  Every probe of a classic binary search
// lands on a different cache line until the range collapses; the
// Eytzinger layout keeps the top of the tree in a few hot lines and
// prefetches descendants four levels ahead, so the deep levels are the
// only misses left.  The gate requires >= 1.3x at the largest measured
// size — 100M keys in full mode, 10M in --quick (with a softer 1.15x
// floor there: shorter runs are noisier) — where the array is
// decisively out of cache; smaller sizes are reported for the curve
// but not gated.
//
// Part 2: mmap zero-copy serving (HSNP v2).  A >= 64MB v2 snapshot is
// written to a temp file and loaded twice — owned buffer with eager
// verification (the default) versus mmap with deferred verification
// (hobbit_serve --mmap).  Gates: cold start (open -> first lookup
// answered) must improve >= 5x, and steady-state lookup throughput out
// of the mapping must hold >= 0.9x of the owned buffer (it reads the
// same page-cache bytes; only the first touch differs).
//
// Identity is checked for both parts (every Eytzinger rank against the
// binary search, every mmap lookup against the owned snapshot).
//
// Part 1 also times the lockstep batched descent
// (EytzingerIndex::LowerBoundRankBatch, the serve tier's BATCH path):
// kBatchWidth descents per group issue their level loads back to back,
// so the cache misses that dominate out-of-cache lookups overlap
// instead of chaining.  Gate: >= 1.2x (1.1x in --quick) over the
// single-key descent at the largest size, identity-checked per query.
//
// Exit codes: 0 ok, 1 identity mismatch, 2 Eytzinger speedup gate,
// 3 cold-start gate, 4 mmap throughput gate, 5 batched-descent gate.
// All gates are single-threaded, so they are enforced on any machine
// (no skipped-1core path here).  `--quick` trims sizes and query counts
// for the perf-micro ctest smoke.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
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

/// Strictly ascending keys spread over the full u32 range with
/// deterministic per-slot jitter — no sort pass needed at 100M keys.
std::vector<std::uint32_t> SyntheticKeys(std::size_t count) {
  std::vector<std::uint32_t> keys(count);
  const std::uint64_t stride = (1ull << 32) / count;
  netsim::Rng rng(count);  // size-keyed: every size gets its own keys
  for (std::size_t i = 0; i < count; ++i) {
    keys[i] = static_cast<std::uint32_t>(
        i * stride + rng.NextBelow(static_cast<std::uint32_t>(stride)));
  }
  return keys;
}

struct LayoutRun {
  double binsearch_qps = 0.0;
  double eytzinger_qps = 0.0;
  double batch_qps = 0.0;
  bool identical = true;
  double speedup() const { return eytzinger_qps / binsearch_qps; }
  double batch_speedup() const { return batch_qps / eytzinger_qps; }
};

LayoutRun CompareLayouts(const std::vector<std::uint32_t>& keys,
                         std::size_t query_count) {
  const serve::EytzingerIndex index = serve::EytzingerIndex::Build(keys);
  std::vector<std::uint32_t> queries(query_count);
  netsim::Rng rng(keys.size() ^ 0x9e3779b9u);
  for (auto& q : queries) {
    q = static_cast<std::uint32_t>(rng.Next());
  }

  LayoutRun run;
  // Warm all three paths once (and check identity while at it): the
  // lockstep batch descent must agree with the single-key descent must
  // agree with std::lower_bound, query for query.
  constexpr std::size_t kWidth = serve::EytzingerIndex::kBatchWidth;
  std::vector<std::size_t> ranks(queries.size());
  index.LowerBoundRankBatch(queries.data(), queries.size(), ranks.data());
  for (std::size_t i = 0; i < queries.size() && run.identical; ++i) {
    const std::size_t expected = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), queries[i]) -
        keys.begin());
    run.identical = index.LowerBoundRank(queries[i]) == expected &&
                    ranks[i] == expected;
  }

  std::uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint32_t q : queries) {
    sink += static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), q) - keys.begin());
  }
  run.binsearch_qps = queries.size() / Seconds(start);

  start = std::chrono::steady_clock::now();
  for (std::uint32_t q : queries) {
    sink -= index.LowerBoundRank(q);
  }
  run.eytzinger_qps = queries.size() / Seconds(start);

  // The batched descent, as the serve tier's BATCH path drives it:
  // kBatchWidth descents in lockstep so their level loads overlap.
  std::size_t group_ranks[kWidth];
  start = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < queries.size(); base += kWidth) {
    const std::size_t group = std::min(kWidth, queries.size() - base);
    index.LowerBoundRankBatch(queries.data() + base, group, group_ranks);
    for (std::size_t i = 0; i < group; ++i) sink += group_ranks[i];
  }
  run.batch_qps = queries.size() / Seconds(start);
  for (std::size_t rank : ranks) sink -= rank;
  if (sink != 0) run.identical = false;  // also defeats dead-code removal
  return run;
}

/// A >= 64MB v2 snapshot: `count` bare /24 entries (no blocks, no hop
/// pool — the entry sections dominate real snapshots too), each one
/// classified with no class.
std::vector<std::byte> BigSnapshotV2(std::size_t count) {
  std::vector<serve::ClassifiedPrefix> classified(count);
  for (std::size_t i = 0; i < count; ++i) {
    classified[i].prefix = netsim::Prefix::Of(
        netsim::Ipv4Address(static_cast<std::uint32_t>(i) << 8), 24);
  }
  return serve::CompileSnapshotV2({}, classified, /*epoch=*/1);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::PrintHeader("lookup-layout",
                     "serving layer: Eytzinger index + mmap zero-copy");
  bench::JsonReporter report("lookup_layout");
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");

  // ---- Part 1: Eytzinger vs sorted-array binary search -----------------
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1'000'000, 10'000'000}
            : std::vector<std::size_t>{1'000'000, 10'000'000, 100'000'000};
  // Quick mode gates softer (like the other --quick smokes): the 10M run
  // is short enough that scheduler noise moves the ratio by ~0.1-0.2x.
  const std::size_t query_count = quick ? 1'000'000 : 4'000'000;
  const double require_layout_speedup = quick ? 1.15 : 1.3;
  // The lockstep batch descent must beat the one-at-a-time descent at
  // the largest (out-of-cache) size, where the overlapped level loads
  // are the whole point.  Softer in --quick, as above.
  const double require_batch_speedup = quick ? 1.1 : 1.2;

  std::printf("%12s %14s %14s %9s %14s %9s\n", "keys", "binsearch[q/s]",
              "eytzinger[q/s]", "speedup", "batch[q/s]", "vs 1-key");
  bool identical = true;
  bool layout_gate_pass = true;
  bool batch_gate_pass = true;
  for (std::size_t size : sizes) {
    const std::vector<std::uint32_t> keys = SyntheticKeys(size);
    // Only the largest (most decisively out-of-cache) size is gated:
    // 1M (4MB of keys) can sit inside a large L2/L3 where both layouts
    // are fast, and mid sizes straddle the cache boundary where the
    // ratio is noisiest; the rest of the curve is reported, not gated.
    // Gated sizes get up to three attempts (first pass wins): a single
    // timed pair is at the mercy of one scheduler hiccup, and only the
    // layout's *best achievable* ratio is the regression signal.
    const bool gated = size == sizes.back() && size >= 10'000'000;
    LayoutRun run = CompareLayouts(keys, query_count);
    identical = identical && run.identical;
    for (int attempt = 1;
         attempt < 3 && gated && run.identical &&
         (run.speedup() < require_layout_speedup ||
          run.batch_speedup() < require_batch_speedup);
         ++attempt) {
      LayoutRun retry = CompareLayouts(keys, query_count);
      identical = identical && retry.identical;
      // Keep each path's best achievable rate across attempts.
      run.binsearch_qps = std::max(run.binsearch_qps, retry.binsearch_qps);
      run.eytzinger_qps = std::max(run.eytzinger_qps, retry.eytzinger_qps);
      run.batch_qps = std::max(run.batch_qps, retry.batch_qps);
    }
    const bool pass = !gated || run.speedup() >= require_layout_speedup;
    const bool batch_pass =
        !gated || run.batch_speedup() >= require_batch_speedup;
    layout_gate_pass = layout_gate_pass && pass;
    batch_gate_pass = batch_gate_pass && batch_pass;
    std::printf("%12zu %14.0f %14.0f %8.2fx %14.0f %8.2fx%s%s%s\n", size,
                run.binsearch_qps, run.eytzinger_qps, run.speedup(),
                run.batch_qps, run.batch_speedup(),
                run.identical ? "" : "  RANK MISMATCH",
                pass ? "" : "  BELOW GATE",
                batch_pass ? "" : "  BATCH BELOW GATE");
    const std::string tag = std::to_string(size / 1'000'000) + "m";
    report.Metric(tag + "_binsearch_qps", run.binsearch_qps);
    report.Metric(tag + "_eytzinger_qps", run.eytzinger_qps);
    report.Metric(tag + "_speedup", run.speedup());
    report.Metric(tag + "_batch_qps", run.batch_qps);
    report.Metric(tag + "_batch_speedup", run.batch_speedup());
  }
  report.Config("require_layout_speedup", require_layout_speedup);
  report.Config("require_batch_speedup", require_batch_speedup);

  // ---- Part 2: mmap zero-copy vs owned buffer --------------------------
  // 8M entries ~= 72MB of file: keys + blocks + classes sections.
  const std::size_t entry_count = 8'000'000;
  const char* path = "/tmp/hobbit_bench_lookup_layout.hsnp";
  {
    const std::vector<std::byte> buffer = BigSnapshotV2(entry_count);
    std::FILE* out = std::fopen(path, "wb");
    if (out == nullptr ||
        std::fwrite(buffer.data(), 1, buffer.size(), out) != buffer.size()) {
      std::printf("cannot write %s\n", path);
      if (out != nullptr) std::fclose(out);
      return 1;
    }
    std::fclose(out);
    std::printf("\nsnapshot file: %zu entries, %zu bytes (%s)\n", entry_count,
                buffer.size(), path);
    report.Config("snapshot_bytes", static_cast<double>(buffer.size()));
  }

  std::string error;
  const std::uint32_t probe_key = (entry_count / 2) << 8;

  // Cold start, owned + eager (the pre-v2 default): read the whole file,
  // checksum every section, scan every entry — then answer one lookup.
  auto start = std::chrono::steady_clock::now();
  auto owned = serve::Snapshot::FromFile(path, &error);
  if (!owned) {
    std::printf("owned load failed: %s\n", error.c_str());
    return 1;
  }
  serve::LookupResult first_owned =
      serve::LookupEngine(*owned).Lookup(netsim::Ipv4Address(probe_key));
  const double owned_cold = Seconds(start);

  // Cold start, mmap + deferred (hobbit_serve --mmap): map the file,
  // validate the header structurally, answer the lookup straight out of
  // the page cache.
  serve::SnapshotLoadOptions mmap_options;
  mmap_options.use_mmap = true;
  mmap_options.defer_verification = true;
  start = std::chrono::steady_clock::now();
  auto mapped = serve::Snapshot::FromFile(path, &error, mmap_options);
  if (!mapped) {
    std::printf("mmap load failed: %s\n", error.c_str());
    return 1;
  }
  serve::LookupResult first_mapped =
      serve::LookupEngine(*mapped).Lookup(netsim::Ipv4Address(probe_key));
  const double mmap_cold = Seconds(start);
  const double cold_ratio = owned_cold / mmap_cold;

  identical = identical && first_owned.found == first_mapped.found &&
              first_owned.key == first_mapped.key;
  std::printf("cold start    : owned+verify %.4fs, mmap+defer %.6fs (%.0fx)"
              "  [mapped: %s]\n",
              owned_cold, mmap_cold, cold_ratio,
              mapped->is_mapped() ? "yes" : "no, read fallback");
  report.Metric("cold_owned_seconds", owned_cold);
  report.Metric("cold_mmap_seconds", mmap_cold);
  report.Metric("cold_speedup", cold_ratio);
  report.Metric("mapped", mapped->is_mapped() ? 1.0 : 0.0);

  // Steady-state throughput: identical random queries against both
  // stores.  One warm pass first — part of the mmap cost is first-touch
  // page faults, which cold-start already accounts for; this measures
  // the serving loop once resident.
  const std::size_t mmap_queries = quick ? 1'000'000 : 4'000'000;
  std::vector<std::uint32_t> queries(mmap_queries);
  netsim::Rng rng(99);
  for (auto& q : queries) {
    q = static_cast<std::uint32_t>(
            rng.NextBelow(static_cast<std::uint32_t>(entry_count + 7)))
        << 8;
  }
  serve::LookupEngine owned_engine(*owned);
  serve::LookupEngine mapped_engine(*mapped);
  std::size_t owned_hits = 0, mapped_hits = 0;
  for (std::uint32_t q : queries) {
    owned_hits += owned_engine.Lookup(netsim::Ipv4Address(q)).found;
    mapped_hits += mapped_engine.Lookup(netsim::Ipv4Address(q)).found;
  }
  identical = identical && owned_hits == mapped_hits;

  start = std::chrono::steady_clock::now();
  for (std::uint32_t q : queries) {
    owned_hits += owned_engine.Lookup(netsim::Ipv4Address(q)).found;
  }
  const double owned_qps = queries.size() / Seconds(start);
  start = std::chrono::steady_clock::now();
  for (std::uint32_t q : queries) {
    mapped_hits += mapped_engine.Lookup(netsim::Ipv4Address(q)).found;
  }
  const double mapped_qps = queries.size() / Seconds(start);
  const double throughput_ratio = mapped_qps / owned_qps;
  identical = identical && owned_hits == mapped_hits;
  std::printf("steady state  : owned %.0f q/s, mmap %.0f q/s (%.2fx)\n",
              owned_qps, mapped_qps, throughput_ratio);
  report.Metric("owned_lookups_per_s", owned_qps);
  report.Metric("mmap_lookups_per_s", mapped_qps);
  report.Metric("mmap_throughput_ratio", throughput_ratio);

  // Deferred verification still catches corruption when finally asked.
  std::string verify_error;
  const bool verify_ok = mapped->VerifyPayload(&verify_error);
  identical = identical && verify_ok;

  std::remove(path);

  const double require_cold = 5.0;
  const double require_throughput = 0.9;
  report.Config("require_cold_speedup", require_cold);
  report.Config("require_throughput_ratio", require_throughput);
  report.Metric("identical", identical ? 1.0 : 0.0);
  const bool cold_pass = cold_ratio >= require_cold;
  const bool throughput_pass = throughput_ratio >= require_throughput;
  report.Metric("gates_pass",
                (layout_gate_pass && batch_gate_pass && cold_pass &&
                 throughput_pass)
                    ? 1.0
                    : 0.0);
  report.Write();

  if (!identical) {
    std::printf("\nlayout/mmap answers DISAGREE (bug!)\n");
    return 1;
  }
  if (!layout_gate_pass) {
    std::printf("\nEytzinger gate FAILED (required >= %.2fx at >= 10M keys)\n",
                require_layout_speedup);
    return 2;
  }
  if (!cold_pass) {
    std::printf("\ncold-start gate FAILED (%.1fx < %.1fx)\n", cold_ratio,
                require_cold);
    return 3;
  }
  if (!throughput_pass) {
    std::printf("\nmmap throughput gate FAILED (%.2fx < %.2fx)\n",
                throughput_ratio, require_throughput);
    return 4;
  }
  if (!batch_gate_pass) {
    std::printf(
        "\nbatched-descent gate FAILED (required >= %.2fx over the "
        "single-key descent at the largest size)\n",
        require_batch_speedup);
    return 5;
  }
  std::printf("\nall layout gates passed\n");
  return 0;
}
