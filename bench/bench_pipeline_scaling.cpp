// bench_pipeline_scaling — wall-time scaling of the measurement campaign
// (snapshot -> calibration -> adaptive probing) across thread counts and
// internet scales, and the speedup of the measurement fast path
// (incremental grouping + route memo + small-vector storage) over the
// reference batch path it replaced.
//
// Correctness is part of the benchmark: for every (scale, thread count)
// the fast and reference configurations must produce byte-identical
// classification output (resultio v1 serialization), and a mismatch fails
// the run loudly.  Speedup gates guard regressions: the single-thread
// fast-vs-reference ratio must clear `--require-speedup` (default
// below); on a machine with >= 4 cores the fast path at 4 threads must
// beat 1 thread; and the similarity-graph build (flat inverted index +
// arena segment chains) must beat its hash-map reference single-threaded
// while producing element-identical edges.  Exit codes: 1 mismatch,
// 2 fast-path gate, 3 thread-scaling gate, 4 similarity-graph gate,
// 77 thread-scaling gate skipped (single-core machine: the report says
// "skipped-1core" instead of letting the vacuous collapse floor count
// as a pass).  The `perf` ctest label runs `--quick` (tiny scale,
// threads {1,2,4}, well under 5 s).
//
// Results are also written to BENCH_pipeline.json via the JSON reporter
// (schema: {bench, config, metrics{...}, commit}).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/aggregate.h"
#include "common.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"

namespace {

using namespace hobbit;

struct CampaignRun {
  double seconds = 0.0;
  double snapshot_seconds = 0.0;     // stage 0 (the zmap scan) alone
  double measurement_seconds = 0.0;  // stage 2 (the main campaign) alone
  std::uint64_t probes = 0;
  std::size_t blocks = 0;
  std::string serialized;  // resultio v1 dump of the classifications
};

CampaignRun RunCampaign(const netsim::Internet& internet, std::uint64_t seed,
                        double scale, int threads, bool fast_path) {
  core::PipelineConfig config;
  config.seed = seed;
  config.threads = threads;
  config.calibration_blocks = std::max(20, static_cast<int>(1200 * scale));
  config.samples_per_block = 16;
  config.prober.incremental_grouping = fast_path;
  config.prober.route_memo = fast_path;

  auto start = std::chrono::steady_clock::now();
  core::PipelineResult result = core::RunPipeline(internet, config);
  auto stop = std::chrono::steady_clock::now();

  CampaignRun run;
  run.seconds = std::chrono::duration<double>(stop - start).count();
  run.snapshot_seconds = result.stats.snapshot_seconds;
  run.measurement_seconds = result.stats.measurement_seconds;
  run.probes = result.stats.probes_sent;
  run.blocks = result.results.size();
  std::ostringstream os;
  core::WriteResults(os, result.results);
  run.serialized = os.str();
  return run;
}

netsim::Internet BuildAt(double scale, std::uint64_t seed) {
  netsim::InternetConfig config;
  config.seed = seed;
  config.scale = scale;
  return netsim::BuildInternet(config);
}

bool SameGraph(const cluster::Graph& a, const cluster::Graph& b) {
  if (a.vertex_count != b.vertex_count || a.edges.size() != b.edges.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b ||
        a.edges[i].weight != b.edges[i].weight) {
      return false;
    }
  }
  return true;
}

struct GraphBuildRun {
  double reference_seconds = 0.0;
  double fast_seconds = 0.0;
  bool identical = true;
  double speedup() const { return reference_seconds / fast_seconds; }
};

/// Times BuildSimilarityGraph (flat sorted inverted index, arena-backed
/// edge chains) against BuildSimilarityGraphReference (hash map +
/// std::vector) single-threaded, repeated out of the noise floor.
GraphBuildRun CompareGraphBuild(
    std::span<const cluster::AggregateBlock> aggregates) {
  GraphBuildRun run;
  run.identical = SameGraph(cluster::BuildSimilarityGraph(aggregates),
                            cluster::BuildSimilarityGraphReference(aggregates));
  auto probe_start = std::chrono::steady_clock::now();
  { cluster::Graph g = cluster::BuildSimilarityGraphReference(aggregates); }
  const double once = std::max(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    probe_start)
          .count(),
      1e-6);
  const int reps = std::clamp(static_cast<int>(0.3 / once), 3, 300);
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    cluster::Graph g = cluster::BuildSimilarityGraphReference(aggregates);
  }
  run.reference_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      reps;
  start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    cluster::Graph g = cluster::BuildSimilarityGraph(aggregates);
  }
  run.fast_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      reps;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double require_speedup = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--require-speedup=", 18) == 0) {
      require_speedup = std::strtod(argv[i] + 18, nullptr);
    }
  }
  // The per-block work (and thus the fast-path advantage) is independent
  // of scale — scale changes the number of /24s, not the probes per /24 —
  // so the quick gate at tiny scale tests the same code paths the full
  // run times.  The gate is on the *measurement stage* (the campaign the
  // fast path targets; the zmap snapshot stage is untouched by it), with
  // enough headroom below the typically measured ~3x that a noisy
  // single-core box does not flake the perf ctest.
  if (require_speedup < 0.0) require_speedup = quick ? 1.3 : 2.2;

  const std::uint64_t seed = bench::WorldSeed();
  const std::vector<double> scales =
      quick ? std::vector<double>{0.02}
            : std::vector<double>{0.05, bench::WorldScale()};
  const std::vector<int> threads =
      quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  // Thread-scaling gate on the fast path itself: 4 threads must beat 1
  // thread by this factor at the largest scale.  Only meaningful when
  // the machine actually has >= 4 cores; below that, the gate degrades
  // to an oversubscription-collapse guard (time-slicing one core across
  // four workers cannot win, it must merely not fall off a cliff).
  const unsigned hw = std::thread::hardware_concurrency();
  const double require_thread_scaling =
      hw >= 4 ? (quick ? 1.2 : 1.5) : 0.4;

  bench::PrintHeader("pipeline-scaling",
                     "engineering: measurement fast path + thread scaling");
  bench::JsonReporter report("pipeline");
  report.Config("seed", static_cast<double>(seed));
  report.Config("mode", quick ? "quick" : "full");
  report.Config("require_speedup", require_speedup);

  report.Config("require_thread_scaling", require_thread_scaling);

  bool all_identical = true;
  // Single-thread measurement-stage speedup at the largest scale.
  double gate_speedup = 0.0;
  // fast_1t / fast_4t wall time at the largest scale.
  double fast_1t_seconds = 0.0;
  double thread_scaling = 0.0;
  netsim::Internet internet;  // survives the loop at the largest scale
  for (double scale : scales) {
    internet = BuildAt(scale, seed);
    std::printf("\nscale %.3g\n", scale);
    std::printf("%10s %10s %12s %10s %12s %12s %9s %10s\n", "threads",
                "path", "total[s]", "snap[s]", "measure[s]", "probes/s",
                "blocks/s", "vs ref");

    CampaignRun reference = RunCampaign(internet, seed, scale, 1, false);
    std::printf("%10d %10s %12.3f %10.3f %12.3f %12.0f %9.1f %9s\n", 1,
                "reference", reference.seconds, reference.snapshot_seconds,
                reference.measurement_seconds,
                reference.probes / reference.seconds,
                reference.blocks / reference.seconds, "-");

    char tag_buffer[32];
    std::snprintf(tag_buffer, sizeof(tag_buffer), "s%.3g", scale);
    const std::string tag = tag_buffer;
    report.Metric(tag + "_reference_1t_seconds", reference.seconds);
    report.Metric(tag + "_reference_1t_snapshot_seconds",
                  reference.snapshot_seconds);
    report.Metric(tag + "_reference_1t_measure_seconds",
                  reference.measurement_seconds);
    report.Metric(tag + "_blocks", static_cast<double>(reference.blocks));
    report.Metric(tag + "_probes", static_cast<double>(reference.probes));

    for (int t : threads) {
      CampaignRun fast = RunCampaign(internet, seed, scale, t, true);
      const double speedup = reference.seconds / fast.seconds;
      const double measure_speedup =
          reference.measurement_seconds / fast.measurement_seconds;
      const bool identical = fast.serialized == reference.serialized;
      all_identical = all_identical && identical;
      std::printf("%10d %10s %12.3f %10.3f %12.3f %12.0f %9.1f %8.2fx%s\n",
                  t, "fast", fast.seconds, fast.snapshot_seconds,
                  fast.measurement_seconds,
                  fast.probes / fast.seconds,
                  fast.blocks / fast.seconds, measure_speedup,
                  identical ? "" : "  CLASSIFICATION MISMATCH");
      report.Metric(tag + "_fast_" + std::to_string(t) + "t_seconds",
                    fast.seconds);
      report.Metric(tag + "_fast_" + std::to_string(t) +
                        "t_snapshot_seconds",
                    fast.snapshot_seconds);
      report.Metric(tag + "_fast_" + std::to_string(t) +
                        "t_measure_seconds",
                    fast.measurement_seconds);
      report.Metric(tag + "_fast_" + std::to_string(t) + "t_speedup",
                    speedup);
      report.Metric(tag + "_fast_" + std::to_string(t) +
                        "t_measure_speedup",
                    measure_speedup);
      if (t == 1) {
        gate_speedup = measure_speedup;
        fast_1t_seconds = fast.seconds;
      }
      if (t == 4 && fast_1t_seconds > 0.0) {
        thread_scaling = fast_1t_seconds / fast.seconds;
      }
    }

    // Cross-check: the reference path must also be thread-count invariant
    // (it was before the fast path landed; keep it honest).
    if (!quick) {
      CampaignRun reference_mt =
          RunCampaign(internet, seed, scale, threads.back(), false);
      all_identical =
          all_identical && reference_mt.serialized == reference.serialized;
    }
  }

  // Similarity-graph build gate on the aggregates of the largest scale:
  // the flat-index + arena build must emit element-identical edges and
  // beat the hash-map reference single-threaded.
  const double require_graph_speedup = quick ? 1.05 : 1.15;
  core::PipelineConfig aggregate_config;
  aggregate_config.seed = seed;
  aggregate_config.threads = 1;
  aggregate_config.calibration_blocks =
      std::max(20, static_cast<int>(1200 * scales.back()));
  aggregate_config.samples_per_block = 16;
  core::PipelineResult aggregate_result =
      core::RunPipeline(internet, aggregate_config);
  std::vector<const core::BlockResult*> homogeneous =
      aggregate_result.HomogeneousBlocks();
  std::vector<cluster::AggregateBlock> aggregates =
      cluster::AggregateIdentical(homogeneous);
  GraphBuildRun graph_run = CompareGraphBuild(aggregates);
  std::printf("\nsimilarity graph (%zu aggregates): fast %.5fs vs reference "
              "%.5fs (%.2fx, required >= %.2fx)%s\n",
              aggregates.size(), graph_run.fast_seconds,
              graph_run.reference_seconds, graph_run.speedup(),
              require_graph_speedup,
              graph_run.identical ? "" : "  EDGE MISMATCH");
  report.Config("require_graph_speedup", require_graph_speedup);
  report.Metric("graph_aggregates", static_cast<double>(aggregates.size()));
  report.Metric("graph_reference_seconds", graph_run.reference_seconds);
  report.Metric("graph_fast_seconds", graph_run.fast_seconds);
  report.Metric("graph_speedup", graph_run.speedup());
  all_identical = all_identical && graph_run.identical;

  const bool scaling_meaningful = hw > 1;
  report.Metric("single_thread_measure_speedup", gate_speedup);
  report.Metric("fast_4t_vs_1t", thread_scaling);
  report.Metric("identical", all_identical ? 1.0 : 0.0);
  report.Metric("scaling_gates",
                scaling_meaningful ? std::string("enforced")
                                   : std::string("skipped-1core"));
  report.Write();

  std::printf("\nclassifications fast vs reference: %s\n",
              all_identical ? "byte-identical" : "MISMATCH (bug!)");
  std::printf(
      "single-thread measurement-stage speedup %.2fx (required >= %.2fx)\n",
      gate_speedup, require_speedup);
  std::printf("fast-path 4t vs 1t %.2fx (required >= %.2fx, threads_hw=%u)\n",
              thread_scaling, require_thread_scaling, hw);
  if (!all_identical) return 1;
  if (gate_speedup < require_speedup) return 2;
  if (graph_run.speedup() < require_graph_speedup) return 4;
  if (!scaling_meaningful) {
    std::printf("thread-scaling gate SKIPPED (threads_hw=1: time-slicing "
                "one core cannot show speedup)\n");
    return 77;
  }
  if (thread_scaling < require_thread_scaling) return 3;
  return 0;
}
