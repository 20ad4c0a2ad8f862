// bench_cluster_scaling — wall-time scaling of the clustering half of the
// pipeline (similarity graph, MCL aggregation, validation reprobing)
// against the thread count, on the shared seed workload.  The probing half
// has scaled with threads since the beginning; this records that the
// post-processing stages now do too, and that results stay bit-identical
// while they do (any mismatch is reported loudly).
//
// Exit codes: 0 ok, 1 result mismatch across thread counts, 2
// scaling-gate failure, 77 scaling gates skipped (single-core machine:
// every multi-thread run time-slices one core, so "speedup" floors would
// be vacuously low — the report says "skipped-1core" instead of silently
// passing).  On >= 2 cores the
// speedup gates are hardware-aware (see RequiredSpeedup): with >= 4
// cores the full gates apply (4t must reach 2x, no thread count may
// lose to serial); thread counts beyond the machine's cores only guard
// against pathological oversubscription collapse.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/aggregate.h"
#include "common.h"
#include "common/parallel.h"

namespace {

using namespace hobbit;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct StageTimes {
  double graph = 0.0;
  double mcl = 0.0;
  double validate = 0.0;
  double total() const { return graph + mcl + validate; }
};

StageTimes RunClusteringStage(const bench::World& world,
                              common::ThreadPool& pool,
                              cluster::MclAggregationResult* out) {
  StageTimes times;
  auto t0 = std::chrono::steady_clock::now();
  cluster::Graph graph =
      cluster::BuildSimilarityGraph(world.aggregates, &pool);
  auto t1 = std::chrono::steady_clock::now();
  cluster::MclAggregationParams params;
  params.mcl.pool = &pool;
  cluster::MclAggregationResult mcl =
      cluster::RunMclAggregation(world.aggregates, params);
  auto t2 = std::chrono::steady_clock::now();
  cluster::ValidationParams validation;
  validation.pool = &pool;
  cluster::ValidateClusters(world.internet, world.pipeline.study_blocks,
                            world.aggregates, mcl, validation);
  auto t3 = std::chrono::steady_clock::now();
  times.graph = Seconds(t0, t1);
  times.mcl = Seconds(t1, t2);
  times.validate = Seconds(t2, t3);
  (void)graph;
  *out = std::move(mcl);
  return times;
}

bool SameClustering(const cluster::MclAggregationResult& a,
                    const cluster::MclAggregationResult& b) {
  if (a.clusters.size() != b.clusters.size()) return false;
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].aggregate_ids != b.clusters[i].aggregate_ids ||
        a.clusters[i].validated_homogeneous !=
            b.clusters[i].validated_homogeneous) {
      return false;
    }
  }
  return a.unclustered == b.unclustered;
}

/// Minimum acceptable `baseline / Nt` ratio for a run with `threads`
/// workers on a machine with `hw` cores.  Quick mode (tiny scale, run
/// as a ctest smoke) keeps the same shape with headroom for noise.
double RequiredSpeedup(int threads, unsigned hw, bool quick) {
  const unsigned cores = std::max(hw, 1u);
  if (static_cast<unsigned>(threads) <= cores) {
    if (threads >= 4) return quick ? 1.5 : 2.0;
    if (threads > 1) return quick ? 0.9 : 1.0;
    return 0.0;  // 1t vs itself
  }
  // Oversubscribed: context switches and cache thrash make < 1x normal
  // (a single-core box time-slices every "parallel" run); only flag a
  // collapse.
  return 0.4;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // Quick mode shrinks the world (unless the caller pinned a scale) so
  // the smoke test stays in ctest budget; gates get noise headroom.
  if (quick) ::setenv("HOBBIT_SCALE", "0.05", /*overwrite=*/0);

  bench::PrintHeader("cluster-scaling",
                     "engineering: MCL-stage thread scaling");
  const unsigned hw = std::thread::hardware_concurrency();
  const bench::World& world = bench::GetWorld();
  std::printf("aggregates: %zu, clusters input to validation follow\n\n",
              world.aggregates.size());
  std::printf("%8s %10s %10s %10s %10s %9s\n", "threads", "graph[s]",
              "mcl[s]", "valid[s]", "total[s]", "speedup");

  bench::JsonReporter report("cluster_scaling");
  report.Config("scale", world.scale);
  report.Config("seed", static_cast<double>(world.seed));
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("aggregates", static_cast<double>(world.aggregates.size()));

  cluster::MclAggregationResult baseline;
  double baseline_total = 0.0;
  bool all_identical = true;
  bool gates_pass = true;
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  // Wall and process CPU seconds of each timed pass, for the failure
  // report.
  std::vector<double> wall_seconds;
  std::vector<double> cpu_seconds;
  for (int threads : thread_counts) {
    common::ThreadPool pool(threads);
    cluster::MclAggregationResult result;
    const double cpu_before = bench::ProcessCpuSeconds();
    StageTimes times = RunClusteringStage(world, pool, &result);
    cpu_seconds.push_back(bench::ProcessCpuSeconds() - cpu_before);
    wall_seconds.push_back(times.total());
    if (threads == 1) {
      baseline = std::move(result);
      baseline_total = times.total();
    } else if (!SameClustering(result, baseline)) {
      all_identical = false;
    }
    const double speedup = baseline_total / times.total();
    const double required = RequiredSpeedup(threads, hw, quick);
    const bool pass = speedup >= required;
    gates_pass = gates_pass && pass;
    std::printf("%8d %10.3f %10.3f %10.3f %10.3f %8.2fx%s\n", threads,
                times.graph, times.mcl, times.validate, times.total(),
                speedup,
                pass ? "" : "  BELOW GATE");
    const std::string tag = std::to_string(threads) + "t";
    report.Metric(tag + "_total_seconds", times.total());
    report.Metric(tag + "_speedup", speedup);
    report.Metric(tag + "_required_speedup", required);
    report.Metric(tag + "_pool_threads",
                  static_cast<double>(pool.thread_count()));
  }
  report.Metric("identical", all_identical ? 1.0 : 0.0);

  // On one core the thread-scaling floors are vacuous (0.4x collapse
  // guards); say so in the report instead of claiming a pass.
  const bool scaling_meaningful = hw > 1;
  report.Metric("scaling_gates",
                scaling_meaningful ? std::string("enforced")
                                   : std::string("skipped-1core"));
  report.Metric("gates_pass", gates_pass ? 1.0 : 0.0);
  report.Write();
  std::printf("\nclustering results across thread counts: %s\n",
              all_identical ? "bit-identical" : "MISMATCH (bug!)");
  if (!all_identical) return 1;
  if (!scaling_meaningful) {
    std::printf("scaling gates SKIPPED (threads_hw=1: multi-thread floors "
                "are vacuous on one core)\n");
    return 77;
  }
  if (!gates_pass) {
    std::printf("scaling gate FAILED (threads_hw=%u; see table)\n", hw);
    // CPU time next to wall time tells a starved process (CPU about
    // wall: one core's worth) from workers that ran (CPU about N x wall).
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      std::printf("  %d thread(s): timed pass wall %.3f s, process CPU "
                  "%.3f s\n",
                  thread_counts[i], wall_seconds[i], cpu_seconds[i]);
    }
    return 2;
  }
  std::printf("scaling gates passed (threads_hw=%u)\n", hw);
  return 0;
}
