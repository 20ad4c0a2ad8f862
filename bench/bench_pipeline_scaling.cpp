// bench_pipeline_scaling — wall-time scaling of the measurement campaign
// (snapshot -> calibration -> adaptive probing) across thread counts and
// internet scales.
//
// Correctness is part of the benchmark: for every scale, every pass at
// every thread count must produce classification output (resultio v1
// serialization) byte-identical to the 1-thread run, and a mismatch
// fails the run loudly.  Each thread count gets one untimed warm pass,
// then its time is the median of 5 passes (the 1-thread baseline's
// too), so one descheduled worker cannot decide the gate.  On a machine
// with >= 4 cores the campaign at 4 threads must beat 1 thread at the
// largest scale.  Exit codes: 1 mismatch, 3 thread-scaling gate, 77
// thread-scaling gate skipped (single-core machine: the report says
// "skipped-1core" instead of letting the vacuous collapse floor count as
// a pass).  The `perf` ctest label runs
// `--quick` (tiny scale, threads {1,2,4}, well under 5 s).
//
// Results are also written to BENCH_pipeline.json via the JSON reporter
// (schema: {bench, config, metrics{...}, commit}).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "common/parallel.h"
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
  // Set by MedianRun: wall and process CPU seconds summed over every
  // timed pass at this thread count (the failure report prints both).
  double timed_wall_seconds = 0.0;
  double timed_cpu_seconds = 0.0;
};

CampaignRun RunCampaign(const netsim::Internet& internet, std::uint64_t seed,
                        double scale, common::ThreadPool* pool) {
  core::PipelineConfig config;
  config.seed = seed;
  config.pool = pool;
  config.calibration_blocks = std::max(20, static_cast<int>(1200 * scale));
  config.samples_per_block = 16;

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

/// Timed passes per thread count; the gate reads the median one.
constexpr int kTimedPasses = 5;

/// One untimed warm pass, then kTimedPasses timed ones; returns the pass
/// of median wall time.  Every pass's classifications are compared with
/// *reference (taken from the first pass when unset), and a mismatch
/// clears *identical.
CampaignRun MedianRun(const netsim::Internet& internet, std::uint64_t seed,
                      double scale, int threads,
                      std::optional<std::string>* reference, bool* identical) {
  // One pool for every pass at this thread count, built before the
  // first timer starts.
  common::ThreadPool pool(threads);
  std::vector<CampaignRun> timed;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  for (int pass = 0; pass <= kTimedPasses; ++pass) {
    const double cpu_before = bench::ProcessCpuSeconds();
    CampaignRun run = RunCampaign(internet, seed, scale, &pool);
    const double cpu_used = bench::ProcessCpuSeconds() - cpu_before;
    if (!reference->has_value()) *reference = run.serialized;
    *identical = *identical && run.serialized == **reference;
    if (pass > 0) {
      wall_seconds += run.seconds;
      cpu_seconds += cpu_used;
      timed.push_back(std::move(run));
    }
  }
  std::sort(timed.begin(), timed.end(),
            [](const CampaignRun& a, const CampaignRun& b) {
              return a.seconds < b.seconds;
            });
  CampaignRun median = std::move(timed[kTimedPasses / 2]);
  median.timed_wall_seconds = wall_seconds;
  median.timed_cpu_seconds = cpu_seconds;
  return median;
}

netsim::Internet BuildAt(double scale, std::uint64_t seed) {
  netsim::InternetConfig config;
  config.seed = seed;
  config.scale = scale;
  return netsim::BuildInternet(config);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::uint64_t seed = bench::WorldSeed();
  const std::vector<double> scales =
      quick ? std::vector<double>{0.02}
            : std::vector<double>{0.05, bench::WorldScale()};
  const std::vector<int> threads =
      quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  // Thread-scaling gate: 4 threads must beat 1 thread by this factor at
  // the largest scale.  Only meaningful when the machine actually has
  // >= 4 cores; below that, the gate degrades to an
  // oversubscription-collapse guard (time-slicing one core across four
  // workers cannot win, it must merely not fall off a cliff).
  const unsigned hw = std::thread::hardware_concurrency();
  const double require_thread_scaling =
      hw >= 4 ? (quick ? 1.2 : 1.5) : 0.4;

  bench::PrintHeader("pipeline-scaling",
                     "engineering: measurement campaign thread scaling");
  bench::JsonReporter report("pipeline");
  report.Config("seed", static_cast<double>(seed));
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("require_thread_scaling", require_thread_scaling);
  report.Config("timed_passes", static_cast<double>(kTimedPasses));

  bool all_identical = true;
  // 1t / 4t wall time at the largest scale.
  double thread_scaling = 0.0;
  // The largest scale's runs by thread count, for the failure report.
  std::vector<std::pair<int, CampaignRun>> last_scale_runs;
  for (double scale : scales) {
    const netsim::Internet internet = BuildAt(scale, seed);
    std::printf("\nscale %.3g\n", scale);
    std::printf("%10s %12s %10s %12s %12s %9s %10s\n", "threads",
                "total[s]", "snap[s]", "measure[s]", "probes/s", "blocks/s",
                "vs 1t");

    char tag_buffer[32];
    std::snprintf(tag_buffer, sizeof(tag_buffer), "s%.3g", scale);
    const std::string tag = tag_buffer;
    std::optional<std::string> reference;  // the 1-thread classifications
    CampaignRun baseline;
    last_scale_runs.clear();
    for (int t : threads) {
      bool identical = true;
      CampaignRun run =
          MedianRun(internet, seed, scale, t, &reference, &identical);
      if (t == 1) {
        baseline = run;
        report.Metric(tag + "_blocks", static_cast<double>(run.blocks));
        report.Metric(tag + "_probes", static_cast<double>(run.probes));
      }
      const double speedup = baseline.seconds / run.seconds;
      all_identical = all_identical && identical;
      std::printf("%10d %12.3f %10.3f %12.3f %12.0f %9.1f %9.2fx%s\n", t,
                  run.seconds, run.snapshot_seconds, run.measurement_seconds,
                  run.probes / run.seconds, run.blocks / run.seconds, speedup,
                  identical ? "" : "  CLASSIFICATION MISMATCH");
      const std::string prefix = tag + "_" + std::to_string(t) + "t";
      report.Metric(prefix + "_seconds", run.seconds);
      report.Metric(prefix + "_snapshot_seconds", run.snapshot_seconds);
      report.Metric(prefix + "_measure_seconds", run.measurement_seconds);
      report.Metric(prefix + "_speedup", speedup);
      if (t == 4) thread_scaling = speedup;
      run.serialized.clear();
      last_scale_runs.emplace_back(t, std::move(run));
    }
  }

  const bool scaling_meaningful = hw > 1;
  report.Metric("4t_vs_1t", thread_scaling);
  report.Metric("identical", all_identical ? 1.0 : 0.0);
  report.Metric("scaling_gates",
                scaling_meaningful ? std::string("enforced")
                                   : std::string("skipped-1core"));
  report.Write();

  std::printf("\nclassifications across thread counts: %s\n",
              all_identical ? "byte-identical" : "MISMATCH (bug!)");
  std::printf("4t vs 1t %.2fx (required >= %.2fx, threads_hw=%u)\n",
              thread_scaling, require_thread_scaling, hw);
  if (!all_identical) return 1;
  if (!scaling_meaningful) {
    std::printf("thread-scaling gate SKIPPED (threads_hw=1: time-slicing "
                "one core cannot show speedup)\n");
    return 77;
  }
  if (thread_scaling < require_thread_scaling) {
    // CPU time next to wall time tells a starved process (CPU about
    // wall: one core's worth) from workers that ran (CPU about N x wall).
    std::printf("thread-scaling gate FAILED; the %d timed passes at the "
                "largest scale:\n",
                kTimedPasses);
    for (const auto& [t, run] : last_scale_runs) {
      std::printf("  %d thread(s): wall %.3f s, process CPU %.3f s\n", t,
                  run.timed_wall_seconds, run.timed_cpu_seconds);
    }
    return 3;
  }
  return 0;
}
