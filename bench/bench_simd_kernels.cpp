// bench_simd_kernels — the runtime-dispatch SIMD layer's speedup gate.
//
// Measures the fused MclIterate column sweep — square_accumulate (the
// power-2 inflation), divide (normalization) and filter_ge (the prune
// scan) back to back per column — through each dispatch tier's kernel
// table (common/simd.h) on cache-resident column-sized buffers: each
// column (~224 entries, ~1.8KB) is L1-hot across its three kernel
// passes, which is exactly the shape MclIterate's gathered SoA columns
// give the kernels.  Every tier's outputs are compared bit for bit
// against the scalar reference first (the FP-identity contract), then
// the AVX2 tier must beat scalar by the gate ratio.
//
// Skip-not-vacuous-pass: on hardware (or a build) without AVX2 the gate
// cannot be exercised, so the binary reports "skipped-no-avx2" and
// exits 77 — the ctest SKIP_RETURN_CODE — rather than passing green.
// Wherever AVX2 *is* executable the gate is enforced unconditionally.
//
// Exit codes: 0 ok, 1 cross-tier identity mismatch, 2 AVX2 below the
// speedup gate, 77 AVX2 not executable (ctest skip).  `--quick` trims
// columns and repetitions (and softens the floor: short runs are
// noisier) for the perf-micro/simd ctest smoke.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/simd.h"
#include "netsim/rng.h"

namespace {

using namespace hobbit;
using common::simd::Kernels;
using common::simd::KernelsFor;
using common::simd::Tier;
using common::simd::TierName;
using common::simd::TierSupported;

constexpr std::size_t kColumnLength = 224;  // ~typical pruned MCL column

struct SweepOutput {
  std::vector<double> values;   // all columns after square+divide
  std::vector<double> sums;     // per-column accumulate results
  std::vector<std::uint32_t> tags;  // row ids fed to the prune scan
  std::vector<std::pair<double, std::uint32_t>> kept;  // filter survivors
  std::size_t kept_count = 0;
};

/// One full pass over every column: the fused-iteration inner loop.
void SweepColumns(const Kernels& kernels, std::size_t columns,
                  double threshold, SweepOutput* out) {
  for (std::size_t c = 0; c < columns; ++c) {
    double* column = out->values.data() + c * kColumnLength;
    const double sum = kernels.square_accumulate(column, kColumnLength);
    out->sums[c] = sum;
    kernels.divide(column, kColumnLength, sum);
    out->kept_count += kernels.filter_ge(column, out->tags.data(),
                                         kColumnLength, threshold,
                                         out->kept.data());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  bench::PrintHeader("simd-kernels",
                     "dispatch-tier speedup gate for the MCL column sweep");
  bench::JsonReporter report("simd_kernels");
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("cpu_features", common::simd::CpuFeatureString());
  report.Config("max_tier", TierName(common::simd::MaxSupportedTier()));

  const std::size_t columns = quick ? 1024 : 4096;
  const std::size_t reps = quick ? 60 : 200;
  // The repo's MCL prune default (cluster::MclParams): 1e-4 against
  // normalized column values (~1/column_length), i.e. a high-keep scan —
  // filter_ge only sheds the numeric tail; SelectTopThenSortByRow does
  // the real dropping afterwards.
  const double threshold = 1e-4;
  report.Config("columns", static_cast<double>(columns));
  report.Config("column_length", static_cast<double>(kColumnLength));

  // Pristine inputs in (0.1, 1): squaring never denormalizes, every tier
  // starts every pass from identical bits.
  const std::size_t total = columns * kColumnLength;
  std::vector<double> pristine(total);
  netsim::Rng rng(4242);
  for (double& v : pristine) v = 0.1 + 0.9 * rng.NextUnit();

  std::vector<Tier> tiers = {Tier::kScalar};
  if (TierSupported(Tier::kSse2)) tiers.push_back(Tier::kSse2);
  if (TierSupported(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);

  // ---- FP-identity: every tier against scalar, bit for bit -------------
  std::vector<SweepOutput> outputs(tiers.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    SweepOutput& out = outputs[t];
    out.values = pristine;
    out.sums.assign(columns, 0.0);
    out.tags.resize(kColumnLength);
    for (std::size_t i = 0; i < kColumnLength; ++i) {
      out.tags[i] = static_cast<std::uint32_t>(i);
    }
    out.kept.assign(kColumnLength, {0.0, 0});
    SweepColumns(KernelsFor(tiers[t]), columns, threshold, &out);
  }
  bool identical = true;
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    // (Survivor *pairs* are differentially tested per size in
    // tests/test_simd.cpp; here the raw buffers can't be memcmp'd —
    // branchless emit leaves tier-dependent scratch past the kept
    // count and in pair padding bytes.)
    identical =
        identical &&
        std::memcmp(outputs[0].values.data(), outputs[t].values.data(),
                    total * sizeof(double)) == 0 &&
        std::memcmp(outputs[0].sums.data(), outputs[t].sums.data(),
                    columns * sizeof(double)) == 0 &&
        outputs[0].kept_count == outputs[t].kept_count;
    if (!identical) {
      std::printf("tier %s DISAGREES with scalar (FP contract broken)\n",
                  TierName(tiers[t]));
    }
  }
  report.Metric("identical", identical ? 1.0 : 0.0);

  // ---- Throughput per tier ---------------------------------------------
  // The restore memcpy runs outside the timed segments; only the sweep
  // itself accumulates time.
  auto measure = [&](Tier tier) {
    const Kernels& kernels = KernelsFor(tier);
    SweepOutput out;
    out.sums.assign(columns, 0.0);
    out.tags.resize(kColumnLength);
    for (std::size_t i = 0; i < kColumnLength; ++i) {
      out.tags[i] = static_cast<std::uint32_t>(i);
    }
    out.kept.assign(kColumnLength, {0.0, 0});
    double seconds = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      out.values = pristine;
      const auto start = std::chrono::steady_clock::now();
      SweepColumns(kernels, columns, threshold, &out);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    }
    return static_cast<double>(total) * static_cast<double>(reps) / seconds;
  };

  std::printf("%8s %16s %9s\n", "tier", "sweep[elem/s]", "vs scalar");
  double scalar_rate = 0.0;
  double avx2_rate = 0.0;
  const double require_speedup = quick ? 1.35 : 1.5;
  // Up to three attempts at the gated ratio (first pass wins): one timed
  // run is at the mercy of a scheduler hiccup, and only the best
  // achievable ratio is the regression signal.
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (Tier tier : tiers) {
      const double rate = measure(tier);
      if (tier == Tier::kScalar) scalar_rate = rate;
      if (tier == Tier::kAvx2 && rate > avx2_rate) avx2_rate = rate;
      if (attempt == 0 || tier == Tier::kAvx2) {
        std::printf("%8s %16.0f %8.2fx\n", TierName(tier), rate,
                    rate / scalar_rate);
        report.Metric(std::string(TierName(tier)) + "_elems_per_s", rate);
        report.Metric(std::string(TierName(tier)) + "_speedup",
                      rate / scalar_rate);
      }
    }
    if (!TierSupported(Tier::kAvx2) ||
        avx2_rate / scalar_rate >= require_speedup) {
      break;
    }
  }
  report.Config("require_avx2_speedup", require_speedup);

  if (!identical) {
    report.Metric("simd_gate", "identity-mismatch");
    report.Write();
    std::printf("\ntier outputs DISAGREE (bug!)\n");
    return 1;
  }
  if (!TierSupported(Tier::kAvx2)) {
    // No AVX2 on this host/build: the speedup gate cannot run.  Exit 77
    // (ctest skip) instead of a vacuous pass.
    report.Metric("simd_gate", "skipped-no-avx2");
    report.Write();
    std::printf("\nAVX2 not executable here; gate SKIPPED (exit 77)\n");
    return 77;
  }
  const double speedup = avx2_rate / scalar_rate;
  if (speedup < require_speedup) {
    report.Metric("simd_gate", "failed");
    report.Write();
    std::printf("\nAVX2 sweep gate FAILED (%.2fx < %.2fx)\n", speedup,
                require_speedup);
    return 2;
  }
  report.Metric("simd_gate", "passed");
  report.Write();
  std::printf("\nAVX2 sweep gate passed (%.2fx >= %.2fx)\n", speedup,
              require_speedup);
  return 0;
}
