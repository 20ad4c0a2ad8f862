// bench_scenario — the accuracy-vs-cost robustness matrix.
//
// Sweeps scenario × probing-mode over fresh copies of one world:
// scenarios are the classic traceroute pathologies (probe loss,
// rate-limit silence, forwarding loops, per-packet false links, route
// churn, an outage window) from src/scenario, probing modes are full
// MDA vs MDA-Lite.  Each cell reports, against the clean/full-MDA
// baseline of the same world:
//
//   * probe cost,
//   * per-/24 classification agreement with a misclassification
//     breakdown (homogeneous->heterogeneous, the reverse, and blocks
//     that dropped out of analyzability),
//   * homogeneity accuracy against the generator's ground truth
//     (IsHomogeneous vs !TruthRecord::heterogeneous over analyzable
//     blocks),
//   * how often each injector actually fired.
//
// Gates (bench-gate pattern):
//   exit 1 — the clean/full cell is not byte-identical to the plain
//            core::RunPipeline of the same world (the scenario harness
//            must be a no-op at zero intensity);
//   exit 2 — MDA-Lite shows no probe savings on the clean world;
//   exit 3 — an artifact cell ran without its injector ever firing
//            (the adversity would be vacuous).
//
// Results go to BENCH_scenario.json; `--quick` (the `perf` ctest label)
// runs the same matrix at tiny scale.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"
#include "scenario/scenario.h"

namespace {

using namespace hobbit;

struct Cell {
  std::string name;
  scenario::ScenarioSpec spec;
  bool expects_artifacts = false;  ///< reply-side injector must fire
  bool expects_events = false;     ///< world events must fire
};

struct CellOutcome {
  std::uint64_t probes = 0;
  std::size_t measured = 0;
  std::size_t agree = 0;
  std::size_t homo_to_hetero = 0;
  std::size_t hetero_to_homo = 0;
  std::size_t to_unanalyzable = 0;
  std::size_t from_unanalyzable = 0;
  std::size_t analyzable = 0;
  std::size_t truth_correct = 0;
  scenario::ScenarioStats stats;
  std::string serialized;  ///< WriteResults bytes (identity gate)
};

std::string Serialize(const core::PipelineResult& result) {
  std::ostringstream os;
  core::WriteResults(os, result.results);
  return os.str();
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
  const std::size_t segment = quick ? 32 : 256;

  bench::PrintHeader("scenario",
                     "robustness: measurement artifacts x probing mode "
                     "(Viger et al. pathologies, MDA-Lite)");
  bench::JsonReporter report("scenario");
  report.Config("seed", static_cast<double>(seed));
  report.Config("scale", scale);
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("threads", threads);
  report.Config("segment", static_cast<double>(segment));

  netsim::InternetConfig world_config;
  world_config.seed = seed;
  world_config.scale = scale;

  // One pool for every run, built outside the campaigns.
  common::ThreadPool pool(threads);
  core::PipelineConfig config;
  config.seed = seed;
  config.pool = &pool;
  if (quick) {
    config.calibration_blocks = 60;
    config.samples_per_block = 32;
    config.prober.min_cell_trials = 100;
  }

  // --- clean/full-MDA baseline: the plain batch pipeline.
  netsim::Internet baseline_world = netsim::BuildInternet(world_config);
  core::PipelineResult baseline =
      core::RunPipeline(baseline_world, config);
  const std::string baseline_bytes = Serialize(baseline);
  std::map<std::uint32_t, core::Classification> baseline_class;
  for (const core::BlockResult& r : baseline.results) {
    baseline_class[r.prefix.base().value()] = r.classification;
  }
  std::printf("baseline: %zu /24s, %llu probes\n", baseline.results.size(),
              static_cast<unsigned long long>(baseline.stats.probes_sent));
  report.Metric("baseline_24s", static_cast<double>(baseline.results.size()));
  report.Metric("baseline_probes",
                static_cast<double>(baseline.stats.probes_sent));

  // --- the scenario matrix.
  std::vector<Cell> cells;
  {
    Cell clean;
    clean.name = "clean";
    cells.push_back(clean);

    Cell loss;
    loss.name = "loss";
    loss.spec.artifacts.p_probe_loss = 0.08;
    loss.expects_artifacts = true;
    cells.push_back(loss);

    Cell ratelimit;
    ratelimit.name = "ratelimit";
    ratelimit.spec.artifacts.p_rate_limit = 0.25;
    ratelimit.expects_artifacts = true;
    cells.push_back(ratelimit);

    Cell loops;
    loops.name = "loops";
    loops.spec.artifacts.p_loop = 0.05;
    loops.expects_artifacts = true;
    cells.push_back(loops);

    Cell perpacket;
    perpacket.name = "perpacket";
    scenario::ScenarioEvent reconfigure;
    reconfigure.action = scenario::ScenarioAction::kLbReconfigure;
    reconfigure.wave = 0;
    reconfigure.count = quick ? 8 : 32;
    perpacket.spec.events.push_back(reconfigure);
    perpacket.expects_events = true;
    cells.push_back(perpacket);

    Cell churn;
    churn.name = "churn";
    churn.spec.segment = segment;
    scenario::ScenarioEvent flip;
    flip.action = scenario::ScenarioAction::kRouteChurn;
    flip.wave = 1;
    flip.repeat = 1;
    flip.count = 4;
    churn.spec.events.push_back(flip);
    churn.expects_events = true;
    cells.push_back(churn);

    Cell outage;
    outage.name = "outage";
    outage.spec.segment = segment;
    scenario::ScenarioEvent start;
    start.action = scenario::ScenarioAction::kOutageStart;
    start.wave = 1;
    scenario::ScenarioEvent end;
    end.action = scenario::ScenarioAction::kOutageEnd;
    end.wave = 3;
    // Down a studied /16 for waves 1-2 — the one containing the first
    // block of wave 1 *of the measurement grid* (baseline.study_blocks,
    // the zmap-filtered list all cells share), so the window covers
    // blocks probed while it is dark.  Indexing the unfiltered
    // study_24s would land in wave 0, fully measured before the outage
    // even starts.
    if (!baseline.study_blocks.empty()) {
      const std::size_t wave1_index =
          std::min(segment, baseline.study_blocks.size() - 1);
      const netsim::Prefix slash16 = netsim::Prefix::Of(
          baseline.study_blocks[wave1_index].prefix.base(), 16);
      start.prefix = slash16;
      end.prefix = slash16;
    }
    outage.spec.events.push_back(start);
    outage.spec.events.push_back(end);
    outage.expects_events = true;
    cells.push_back(outage);
  }

  bool identity_ok = true;
  bool injectors_ok = true;
  std::uint64_t clean_full_probes = 0, clean_lite_probes = 0;
  std::size_t clean_lite_agree = 0, clean_lite_measured = 0;

  for (const Cell& cell : cells) {
    for (const bool lite : {false, true}) {
      // Fresh world per run: scenario events mutate the topology.
      netsim::Internet world = netsim::BuildInternet(world_config);
      scenario::ScenarioSpec spec = cell.spec;
      spec.seed = seed;
      spec.artifacts.seed = seed;
      core::PipelineConfig run_config = config;
      run_config.prober.mda_lite = lite;
      CellOutcome outcome;
      core::PipelineResult run =
          scenario::RunScenarioPipeline(world, run_config, spec,
                                        &outcome.stats);
      outcome.probes = run.stats.probes_sent;
      outcome.measured = run.results.size();
      outcome.serialized = Serialize(run);
      for (const core::BlockResult& r : run.results) {
        auto pos = baseline_class.find(r.prefix.base().value());
        const bool have_base = pos != baseline_class.end();
        if (have_base && pos->second == r.classification) ++outcome.agree;
        if (have_base && pos->second != r.classification) {
          const bool base_analyzable = core::IsAnalyzable(pos->second);
          const bool now_analyzable = core::IsAnalyzable(r.classification);
          if (base_analyzable && !now_analyzable) {
            ++outcome.to_unanalyzable;
          } else if (!base_analyzable && now_analyzable) {
            ++outcome.from_unanalyzable;
          } else if (core::IsHomogeneous(pos->second) &&
                     !core::IsHomogeneous(r.classification)) {
            ++outcome.homo_to_hetero;
          } else if (!core::IsHomogeneous(pos->second) &&
                     core::IsHomogeneous(r.classification)) {
            ++outcome.hetero_to_homo;
          }
        }
        if (core::IsAnalyzable(r.classification)) {
          ++outcome.analyzable;
          if (const netsim::TruthRecord* truth = world.TruthOf(r.prefix)) {
            if (core::IsHomogeneous(r.classification) ==
                !truth->heterogeneous) {
              ++outcome.truth_correct;
            }
          }
        }
      }

      const std::string key =
          cell.name + (lite ? "_lite" : "_full");
      const double agreement =
          outcome.measured == 0
              ? 0.0
              : static_cast<double>(outcome.agree) / outcome.measured;
      const double truth_accuracy =
          outcome.analyzable == 0
              ? 0.0
              : static_cast<double>(outcome.truth_correct) /
                    outcome.analyzable;
      const std::uint64_t fired = outcome.stats.injector.total();
      std::printf(
          "%-16s probes %9llu  agree %5.3f  truth %5.3f  "
          "(h->x %zu, x->h %zu, ->n/a %zu; artifacts %llu, events %zu)\n",
          key.c_str(), static_cast<unsigned long long>(outcome.probes),
          agreement, truth_accuracy, outcome.homo_to_hetero,
          outcome.hetero_to_homo, outcome.to_unanalyzable,
          static_cast<unsigned long long>(fired),
          outcome.stats.events_fired);
      report.Metric(key + "_probes", static_cast<double>(outcome.probes));
      report.Metric(key + "_agreement", agreement);
      report.Metric(key + "_truth_accuracy", truth_accuracy);
      report.Metric(key + "_analyzable",
                    static_cast<double>(outcome.analyzable));
      report.Metric(key + "_homo_to_hetero",
                    static_cast<double>(outcome.homo_to_hetero));
      report.Metric(key + "_hetero_to_homo",
                    static_cast<double>(outcome.hetero_to_homo));
      report.Metric(key + "_to_unanalyzable",
                    static_cast<double>(outcome.to_unanalyzable));
      report.Metric(key + "_artifacts", static_cast<double>(fired));

      if (cell.name == "clean" && !lite) {
        clean_full_probes = outcome.probes;
        // The zero-intensity identity gate: the scenario harness with an
        // empty spec must BE the plain pipeline.
        if (outcome.serialized != baseline_bytes ||
            outcome.probes != baseline.stats.probes_sent) {
          identity_ok = false;
        }
      }
      if (cell.name == "clean" && lite) {
        clean_lite_probes = outcome.probes;
        clean_lite_agree = outcome.agree;
        clean_lite_measured = outcome.measured;
      }
      if (cell.expects_artifacts && fired == 0) injectors_ok = false;
      if (cell.expects_events && outcome.stats.events_fired == 0) {
        injectors_ok = false;
      }
    }
  }

  const double lite_savings =
      clean_full_probes == 0
          ? 0.0
          : 1.0 - static_cast<double>(clean_lite_probes) /
                      static_cast<double>(clean_full_probes);
  const double lite_accuracy_delta =
      clean_lite_measured == 0
          ? 0.0
          : 1.0 - static_cast<double>(clean_lite_agree) /
                      static_cast<double>(clean_lite_measured);
  report.Metric("mda_lite_probe_savings", lite_savings);
  report.Metric("mda_lite_accuracy_delta", lite_accuracy_delta);
  report.Metric("zero_intensity_identical", identity_ok ? 1.0 : 0.0);
  report.Write();

  std::printf("mda-lite on the clean world: %.1f%% fewer probes, "
              "%.3f classification delta\n",
              lite_savings * 100.0, lite_accuracy_delta);
  std::printf("zero-intensity scenario vs plain pipeline: %s\n",
              identity_ok ? "byte-identical" : "MISMATCH (bug!)");
  std::printf("injector coverage: %s\n",
              injectors_ok ? "every adverse cell fired"
                           : "an adverse cell never fired (bug!)");

  if (!identity_ok) return 1;
  if (clean_lite_probes >= clean_full_probes) return 2;
  if (!injectors_ok) return 3;
  return 0;
}
