// bench_microperf — google-benchmark microbenchmarks of the hot paths:
// FIB longest-prefix match, probe simulation, hierarchy testing, MCL,
// the ZMap sweep and the dispatch-tier SIMD kernels.  These bound the
// wall-clock cost of the paper-scale experiments (the paper probed
// 64.45M destinations; the harness must sustain millions of simulated
// probes per second).
//
// Besides google-benchmark's own console/JSON output, the binary writes
// BENCH_microperf.json through the shared reporter with the dispatch
// tier actually selected (`simd_tier` — HOBBIT_SIMD-clamped) and the
// host's capability string (`cpu_features`), so checked-in numbers are
// attributable to the kernel tier that produced them, plus the warm-memo
// MDA-shaped probe cost (`mda_probe_ns`, ns per simulated probe) and the
// full snapshot verification cost (`snapshot_verify_ns_per_byte`), the
// cost of a default RELOAD at the store (`store_reload_ms`) and of
// compiling a census-sized block map (`snapshot_compile_ms`) and a
// campaign-sized one (`snapshot_compile_campaign_us`, the median of
// repetitions).  A run with --benchmark_filter is partial: its report
// goes beside the binary, not over the checked-in one.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cluster/aggregate.h"
#include "cluster/mcl.h"
#include "common.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "hobbit/hierarchy.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "netsim/route_memo.h"
#include "netsim/simulator.h"
#include "probing/zmap.h"
#include "serve/snapshot.h"
#include "serve/store.h"

namespace {

using namespace hobbit;

const netsim::Internet& SharedInternet() {
  static netsim::Internet internet =
      netsim::BuildInternet(netsim::TinyConfig(9));
  return internet;
}

void BM_FibLookup(benchmark::State& state) {
  const netsim::Internet& internet = SharedInternet();
  // The core routers hold the largest tables.
  const netsim::Router& core = internet.topology.router(5);
  netsim::Rng rng(1);
  std::vector<netsim::Ipv4Address> targets;
  for (int i = 0; i < 512; ++i) {
    targets.push_back(internet.study_24s[rng.NextBelow(
                                             internet.study_24s.size())]
                          .base());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core.fib.Lookup(targets[i++ & 511]));
  }
}
BENCHMARK(BM_FibLookup);

void BM_SimulatorEchoProbe(benchmark::State& state) {
  const netsim::Internet& internet = SharedInternet();
  netsim::Rng rng(2);
  std::vector<netsim::ProbeSpec> probes;
  for (int i = 0; i < 512; ++i) {
    netsim::ProbeSpec probe;
    probe.destination = netsim::Ipv4Address(
        internet.study_24s[rng.NextBelow(internet.study_24s.size())]
            .base()
            .value() +
        static_cast<std::uint32_t>(rng.NextBelow(256)));
    probe.ttl = 64;
    probes.push_back(probe);
  }
  // One memo, warmed over the 512 targets before timing, as a prober
  // keeps its memo across blocks.
  netsim::RouteMemo memo;
  for (const netsim::ProbeSpec& probe : probes) {
    internet.simulator->Send(probe, memo);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto probe = probes[i++ & 511];
    probe.serial = i;
    benchmark::DoNotOptimize(internet.simulator->Send(probe, memo));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorEchoProbe);

// The probes Hobbit's last-hop prober sends into one destination: an
// echo, the TTL walk out to the host and a 16-flow MDA sweep of the last
// hop — for every 8th address across four study /24s, all through one
// memo that stays warm across iterations (a prober keeps its memo across
// blocks).  One iteration is one probe, so time/iteration is ns/probe.
std::vector<netsim::ProbeSpec> MdaShapedProbes(
    const netsim::Internet& internet) {
  std::vector<netsim::ProbeSpec> probes;
  auto add = [&probes](netsim::Ipv4Address dst, int ttl,
                       std::uint16_t flow) {
    netsim::ProbeSpec probe;
    probe.destination = dst;
    probe.ttl = ttl;
    probe.flow_id = flow;
    probes.push_back(probe);
  };
  const std::size_t stride = internet.study_24s.size() / 4;
  netsim::RouteMemo memo;
  for (std::size_t b = 0; b < 4; ++b) {
    const std::uint32_t base = internet.study_24s[b * stride].base().value();
    for (std::uint32_t octet = 1; octet < 256; octet += 8) {
      const netsim::Ipv4Address dst(base | octet);
      const std::size_t routers =
          internet.simulator->ResolvePath(dst, 0, 0, memo).size();
      if (routers == 0) continue;
      const int host_hop = static_cast<int>(routers) + 1;
      add(dst, 64, 0);
      for (int ttl = 1; ttl <= host_hop; ++ttl) add(dst, ttl, 1);
      for (std::uint16_t flow = 1; flow <= 16; ++flow) {
        add(dst, host_hop - 1, flow);
      }
    }
  }
  return probes;
}

void BM_SimulatorMdaProbe(benchmark::State& state) {
  const netsim::Internet& internet = SharedInternet();
  const std::vector<netsim::ProbeSpec> probes = MdaShapedProbes(internet);
  netsim::RouteMemo memo;
  std::uint64_t serial = 0;
  for (netsim::ProbeSpec probe : probes) {
    probe.serial = serial++;
    internet.simulator->Send(probe, memo);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    netsim::ProbeSpec probe = probes[i++ % probes.size()];
    probe.serial = serial++;
    benchmark::DoNotOptimize(internet.simulator->Send(probe, memo));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorMdaProbe)->Unit(benchmark::kNanosecond);

void BM_HierarchyTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  netsim::Rng rng(3);
  std::vector<core::AddressObservation> observations;
  for (std::size_t i = 0; i < n; ++i) {
    core::AddressObservation obs;
    obs.address = netsim::Ipv4Address(0x14000000u +
                                      static_cast<std::uint32_t>(i));
    obs.last_hops = {netsim::Ipv4Address(
        0x0A000000u + static_cast<std::uint32_t>(rng.NextBelow(4)))};
    observations.push_back(std::move(obs));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::HobbitSaysHomogeneous(observations));
  }
}
BENCHMARK(BM_HierarchyTest)->Arg(8)->Arg(32)->Arg(128);

void BM_MclTwoCliques(benchmark::State& state) {
  cluster::Graph g;
  const auto k = static_cast<std::uint32_t>(state.range(0));
  g.vertex_count = 2 * k;
  for (std::uint32_t base : {0u, k}) {
    for (std::uint32_t i = 0; i < k; ++i) {
      for (std::uint32_t j = i + 1; j < k; ++j) {
        g.edges.push_back({base + i, base + j, 1.0});
      }
    }
  }
  g.edges.push_back({k - 1, k, 0.05});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::RunMcl(g));
  }
}
BENCHMARK(BM_MclTwoCliques)->Arg(8)->Arg(32);

void BM_MclParallel(benchmark::State& state) {
  // The MCL expansion/inflation loop on a chunky random graph, under the
  // shared deterministic thread pool.  Arg = thread count; results are
  // bit-identical across counts, only the wall time moves.
  netsim::Rng rng(7);
  cluster::Graph g;
  g.vertex_count = 512;
  for (std::uint32_t i = 0; i < g.vertex_count; ++i) {
    for (std::uint32_t j = i + 1; j < g.vertex_count; ++j) {
      if (rng.NextBool(0.04)) g.edges.push_back({i, j, rng.NextUnit()});
    }
  }
  common::ThreadPool pool(static_cast<int>(state.range(0)));
  cluster::MclParams params;
  params.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::RunMcl(g, params));
  }
}
BENCHMARK(BM_MclParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_ZmapScanPerBlock(benchmark::State& state) {
  const netsim::Internet& internet = SharedInternet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probing::RunZmapScan(internet, internet.study_24s));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(internet.study_24s.size()) * 256);
}
BENCHMARK(BM_ZmapScanPerBlock);

// The dispatch-layer kernels on one L1-resident MCL-shaped column
// (square_accumulate + divide + filter_ge, the fused-iteration inner
// loop).  Arg = tier; unsupported tiers report a skip rather than
// silently benchmarking a clamped fallback.
void BM_SimdColumnSweep(benchmark::State& state) {
  const auto tier = static_cast<common::simd::Tier>(state.range(0));
  if (!common::simd::TierSupported(tier)) {
    state.SkipWithError("tier not executable on this host/build");
    return;
  }
  const common::simd::Kernels& kernels = common::simd::KernelsFor(tier);
  constexpr std::size_t kCount = 224;
  netsim::Rng rng(11);
  std::vector<double> pristine(kCount);
  for (double& v : pristine) v = 0.1 + 0.9 * rng.NextUnit();
  std::vector<double> column(kCount);
  std::vector<std::uint32_t> tags(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    tags[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::pair<double, std::uint32_t>> kept(kCount);
  for (auto _ : state) {
    std::memcpy(column.data(), pristine.data(), kCount * sizeof(double));
    const double sum = kernels.square_accumulate(column.data(), kCount);
    kernels.divide(column.data(), kCount, sum);
    benchmark::DoNotOptimize(kernels.filter_ge(
        column.data(), tags.data(), kCount, 0.5 / kCount, kept.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCount));
}
BENCHMARK(BM_SimdColumnSweep)
    ->Arg(static_cast<int>(common::simd::Tier::kScalar))
    ->Arg(static_cast<int>(common::simd::Tier::kSse2))
    ->Arg(static_cast<int>(common::simd::Tier::kAvx2));

// A synthetic snapshot of `entries` /24s with the census's section
// proportions: a block per ~4.75 entries and ~1.6 last hops per block,
// 12.9 bytes per entry in all.  Entry i is the /24 i + 1; seven in eight
// are members of block i % blocks, and every one is classified.
std::vector<std::byte> CensusShapedBytes(std::uint32_t entry_count,
                                         std::uint64_t seed) {
  const std::uint32_t kBlocks = entry_count * 4 / 19;
  std::vector<cluster::AggregateBlock> blocks(kBlocks);
  std::vector<serve::ClassifiedPrefix> classified(entry_count);
  netsim::Rng rng(seed);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    const netsim::Prefix prefix =
        netsim::Prefix::Of(netsim::Ipv4Address((i + 1) << 8), 24);
    if (rng.NextBelow(8) != 0) {
      blocks[i % kBlocks].member_24s.push_back(prefix);
    }
    classified[i] = {prefix, static_cast<std::uint8_t>(rng.NextBelow(5))};
  }
  for (cluster::AggregateBlock& block : blocks) {
    rng.Next();  // unused: keeps each seed's hop counts, and so h
    block.last_hops.resize(rng.NextBelow(5) < 2 ? 1 : 2);
  }
  return serve::CompileSnapshotV2(blocks, classified, seed);
}

// Full payload verification (padding, the five section checksums, the
// invariant scan) of a 2 M-entry census-shaped snapshot, 27 MB, far past
// any cache: the work a RELOAD does beyond reading the file and indexing
// the keys.
const serve::Snapshot& SharedLargeSnapshot() {
  static const serve::Snapshot snapshot =
      *serve::Snapshot::FromBuffer(CensusShapedBytes(1u << 21, 5));
  return snapshot;
}

void BM_SnapshotVerify(benchmark::State& state) {
  const serve::Snapshot& snapshot = SharedLargeSnapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.VerifyPayload());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(snapshot.buffer_bytes()));
}
BENCHMARK(BM_SnapshotVerify)->Unit(benchmark::kMillisecond);

/// Two census-sized snapshot files (3.37 M entries, 43 MB, like
/// e2ebench's census) in the temp directory, removed at exit.
struct ReloadFiles {
  ReloadFiles() {
    const std::string stem = (std::filesystem::temp_directory_path() /
                              ("hobbit_bench_reload_" +
                               std::to_string(::getpid())))
                                 .string();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      paths[i] = stem + "_" + std::to_string(i) + ".snap";
      if (!serve::WriteSnapshotFile(paths[i],
                                    CensusShapedBytes(3'370'000, 5 + i))) {
        paths[i].clear();
      }
    }
  }
  ~ReloadFiles() {
    for (const std::string& path : paths) std::remove(path.c_str());
  }
  std::array<std::string, 2> paths;
};

// A default RELOAD at the layer: the store reads, verifies and indexes
// each file and retires the previous pair, alternating between the two
// files as e2ebench's reload windows do.  After the first two reloads
// every one runs on recycled memory.
void BM_StoreReload(benchmark::State& state) {
  static const ReloadFiles files;
  serve::SnapshotStore store;
  std::size_t next = 0;
  for (auto _ : state) {
    if (!store.ReloadFromFile(files.paths[next])) {
      state.SkipWithError("reload failed");
      break;
    }
    next ^= 1;
  }
}
BENCHMARK(BM_StoreReload)->Unit(benchmark::kMillisecond);

/// A census-shaped block map of `entry_count` /24s, shaped like
/// e2ebench's census: ascending keys with gaps; a fifth classified only
/// (no block), the rest in blocks of 1-8 members, each member classified
/// too, with one last hop (70%) or two to four.
struct CensusMap {
  std::vector<cluster::AggregateBlock> blocks;
  std::vector<serve::ClassifiedPrefix> classified;
};

CensusMap CensusShapedMap(std::size_t entry_count, std::uint64_t seed) {
  CensusMap map;
  map.classified.reserve(entry_count);
  netsim::Rng rng(seed);
  std::uint32_t cursor = 0x010000;  // /24 index of 1.0.0.0
  auto slash24 = [](std::uint32_t index) {
    return netsim::Prefix::Of(netsim::Ipv4Address(index << 8), 24);
  };
  auto token = [](core::Classification c) {
    return static_cast<std::uint8_t>(c);
  };
  static constexpr core::Classification kUnblocked[] = {
      core::Classification::kDifferentButHierarchical,
      core::Classification::kTooFewActive,
      core::Classification::kUnresponsiveLastHop};
  while (map.classified.size() < entry_count) {
    cursor += static_cast<std::uint32_t>(rng.NextBelow(25));
    if (rng.NextBool(0.2)) {
      map.classified.push_back(
          {slash24(cursor++), token(kUnblocked[rng.NextBelow(3)])});
      continue;
    }
    const std::size_t size = std::min<std::size_t>(
        entry_count - map.classified.size(), 1 + rng.NextBelow(8));
    const bool same_hop = rng.NextBool(0.7);
    cluster::AggregateBlock block;
    const std::uint8_t verdict =
        token(same_hop ? core::Classification::kSameLastHop
                       : core::Classification::kNonHierarchical);
    for (std::size_t m = 0; m < size; ++m, ++cursor) {
      block.member_24s.push_back(slash24(cursor));
      map.classified.push_back({slash24(cursor), verdict});
    }
    const std::size_t hops = same_hop ? 1 : 2 + rng.NextBelow(3);
    for (std::size_t h = 0; h < hops; ++h) {
      block.last_hops.emplace_back(0x0A000000u + static_cast<std::uint32_t>(h));
    }
    map.blocks.push_back(std::move(block));
  }
  return map;
}

// The whole compile of a census-sized block map (3.37 M /24s, ~710 k
// blocks): entry resolution, the block table and the assembled, checksummed
// buffer -- what `setup.WriteSnapshot` pays before its file write.
void BM_SnapshotCompile(benchmark::State& state) {
  static const CensusMap census = CensusShapedMap(3'370'000, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::CompileSnapshotV2(census.blocks, census.classified, 1));
  }
}
BENCHMARK(BM_SnapshotCompile)->Unit(benchmark::kMillisecond);

/// A campaign-sized block map: `entry_count` classified /24s drawn from
/// the whole /24 space, two thirds of them grouped into blocks of 1-8
/// members that lie anywhere in the space, blocks in canonical order --
/// the shape `RunChain` compiles per world.
CensusMap CampaignShapedMap(std::size_t entry_count, std::uint64_t seed) {
  netsim::Rng rng(seed);
  std::vector<std::uint32_t> slash24s(entry_count);
  for (std::uint32_t& index : slash24s) {
    index = static_cast<std::uint32_t>(rng.NextBelow(1u << 24));
  }
  std::sort(slash24s.begin(), slash24s.end());
  slash24s.erase(std::unique(slash24s.begin(), slash24s.end()),
                 slash24s.end());
  auto slash24 = [](std::uint32_t index) {
    return netsim::Prefix::Of(netsim::Ipv4Address(index << 8), 24);
  };
  CensusMap map;
  for (const std::uint32_t index : slash24s) {
    map.classified.push_back({slash24(index), static_cast<std::uint8_t>(
                                                  rng.NextBelow(5))});
  }
  std::vector<std::uint32_t> pool = slash24s;
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(pool.size() * 2 / 3);
  for (std::size_t next = 0; next < pool.size();) {
    const std::size_t size =
        std::min<std::size_t>(pool.size() - next, 1 + rng.NextBelow(8));
    cluster::AggregateBlock block;
    for (std::size_t m = 0; m < size; ++m) {
      block.member_24s.push_back(slash24(pool[next++]));
    }
    block.last_hops.emplace_back(0x0A000000u + static_cast<std::uint32_t>(
                                                   rng.NextBelow(1u << 16)));
    map.blocks.push_back(std::move(block));
  }
  cluster::SortCanonical(map.blocks);
  return map;
}

// The same compile at campaign size (14 k /24s spread over the whole /24
// space): the per-world snapshot of the campaign chain, a map far smaller
// than the 2^24-bit key bitmap the resolver ranks it over.  A few hundred
// microseconds that move with the allocator state the benchmarks before
// it leave, so it runs repeated and the report keeps the median.
void BM_SnapshotCompileCampaign(benchmark::State& state) {
  static const CensusMap campaign = CampaignShapedMap(14'000, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::CompileSnapshotV2(campaign.blocks, campaign.classified, 1));
  }
}
BENCHMARK(BM_SnapshotCompileCampaign)
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);

/// The console reporter, also keeping the per-iteration wall time of the
/// benchmarks whose numbers go into BENCH_microperf.json (for a repeated
/// benchmark, the median over its repetitions).  Colour codes
/// only on a terminal: piped or redirected output stays plain text.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  RecordingReporter()
      : ConsoleReporter(::isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate) {
        if (run.aggregate_name == "median" &&
            run.run_name.function_name == "BM_SnapshotCompileCampaign") {
          snapshot_compile_campaign_us = run.GetAdjustedRealTime();
        }
        continue;
      }
      if (run.benchmark_name() == "BM_SimulatorMdaProbe") {
        mda_probe_ns = run.GetAdjustedRealTime();
      } else if (run.benchmark_name() == "BM_SnapshotVerify") {
        snapshot_verify_ns_per_byte =
            run.GetAdjustedRealTime() * 1e6 /
            static_cast<double>(SharedLargeSnapshot().buffer_bytes());
      } else if (run.benchmark_name() == "BM_StoreReload") {
        store_reload_ms = run.GetAdjustedRealTime();
      } else if (run.benchmark_name() == "BM_SnapshotCompile") {
        snapshot_compile_ms = run.GetAdjustedRealTime();
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
  double mda_probe_ns = 0.0;
  double snapshot_verify_ns_per_byte = 0.0;
  double store_reload_ms = 0.0;
  double snapshot_compile_ms = 0.0;
  double snapshot_compile_campaign_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // A filter drops benchmarks, and with them metrics of the report.
  const bool filtered = std::any_of(argv + 1, argv + argc, [](const char* arg) {
    return std::strncmp(arg, "--benchmark_filter", 18) == 0;
  });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter console;
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();

  // Attribute the numbers: which kernel tier dispatch actually selected
  // (the HOBBIT_SIMD override, clamped to the hardware) and what the
  // hardware could support.
  hobbit::bench::JsonReporter report("microperf");
  if (filtered) report.MarkPartial("--benchmark_filter");
  report.Metric("simd_tier",
                std::string(hobbit::common::simd::TierName(
                    hobbit::common::simd::ActiveTier())));
  report.Metric("cpu_features", hobbit::common::simd::CpuFeatureString());
  if (console.mda_probe_ns > 0.0) {
    report.Metric("mda_probe_ns", console.mda_probe_ns);
  }
  if (console.snapshot_verify_ns_per_byte > 0.0) {
    report.Metric("snapshot_verify_ns_per_byte",
                  console.snapshot_verify_ns_per_byte);
  }
  if (console.store_reload_ms > 0.0) {
    report.Metric("store_reload_ms", console.store_reload_ms);
  }
  if (console.snapshot_compile_ms > 0.0) {
    report.Metric("snapshot_compile_ms", console.snapshot_compile_ms);
  }
  if (console.snapshot_compile_campaign_us > 0.0) {
    report.Metric("snapshot_compile_campaign_us",
                  console.snapshot_compile_campaign_us);
  }
  report.Write();
  return 0;
}
