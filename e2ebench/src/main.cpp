// main.cpp — one run of one benchmark workload.
//
// Every workload runs the whole chain, in three phases, with its own input
// sizes and time split (e2ebench/workloads.json):
//   setup     build the Internet(s) and the pool; synthesize, compile, write
//             and load the census snapshots when the workload serves one;
//   campaign  RunPipeline ... Snapshot::FromBuffer over every world, checked;
//   serve     an in-process serve::Reactor on loopback, driven open loop:
//             a reference-rate window (p50), a RELOAD window (reload_s) and,
//             in traced runs, a rate ladder; every reply is checked.
// The last stdout line is the result object.  With --trace 1 the run
// records spans, adds the traced-only layer timings and prints the
// per-layer metrics instead.
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/evaluation.h"
#include "campaign.h"
#include "census.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "ladder.h"
#include "loadgen.h"
#include "netsim/internet.h"
#include "serve/lookup.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "serve/store.h"
#include "trace.h"
#include "util.h"

namespace e2ebench {
namespace {

namespace serve = hobbit::serve;

/// One pool of this size serves every campaign stage; at 4 threads the
/// measurement stage ran bimodal.
constexpr int kPoolThreads = 2;

/// Ladder step limits: p99 (above the host's 4-8 ms preemptions, so only
/// real overload fails a step) and the generator's own p99 lateness.
constexpr double kP99LimitUs = 5000.0;
constexpr double kLateLimitUs = 1000.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 0.25;           ///< campaign Internet scale
  int worlds = 1;                ///< Internets per run, seeded from --seed
  std::size_t census = 0;        ///< census /24s; 0 serves world 0's map
  Traffic traffic = Traffic::kLookup;
  int batch = 64;
  int connections = 4;
  double ref_rate = 20000.0;     ///< commands/s of the reference window
  bool ref_reloads = false;      ///< RELOAD during the reference window
  double reload_period_s = 1.0;
  std::vector<double> ladder;    ///< ascending commands/s
  double frac_campaign = 0.2;    ///< shares of --seconds per phase
  double frac_ref = 0.2;
  double frac_reload = 0.2;
  double step_s = 1.0;           ///< ladder step length (traced runs only)
  int setup_repeats = 3;
  double window_ms = 0.0;        ///< quantile sub-window; 0: whole window
  std::size_t tape = 1u << 19;
  double warmup_s = 0.3;
  std::string work_dir = ".";
  std::string fault = "none";    ///< none | reply | block (test hooks)
  std::string trace_out;
};

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> values;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) values.push_back(std::stod(item));
  return values;
}

bool Parse(int argc, char** argv, Options* o, std::string* error) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      *error = "expected --key value, got " + key;
      return false;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    *error = "odd argument count";
    return false;
  }
  try {
    for (const auto& [key, value] : args) {
      if (key == "workload") o->workload = value;
      else if (key == "seed") o->seed = std::stoull(value);
      else if (key == "seconds") o->seconds = std::stod(value);
      else if (key == "trace") o->trace = value == "1";
      else if (key == "scale") o->scale = std::stod(value);
      else if (key == "worlds") o->worlds = std::stoi(value);
      else if (key == "census") o->census = std::stoull(value);
      else if (key == "traffic") {
        if (value != "lookup" && value != "batch") throw std::invalid_argument(value);
        o->traffic = value == "lookup" ? Traffic::kLookup : Traffic::kBatch;
      } else if (key == "batch") o->batch = std::stoi(value);
      else if (key == "connections") o->connections = std::stoi(value);
      else if (key == "ref-rate") o->ref_rate = std::stod(value);
      else if (key == "ref-reloads") o->ref_reloads = value == "1";
      else if (key == "reload-period") o->reload_period_s = std::stod(value);
      else if (key == "ladder") o->ladder = ParseList(value);
      else if (key == "frac-campaign") o->frac_campaign = std::stod(value);
      else if (key == "frac-ref") o->frac_ref = std::stod(value);
      else if (key == "frac-reload") o->frac_reload = std::stod(value);
      else if (key == "step-seconds") o->step_s = std::stod(value);
      else if (key == "setup-repeats") o->setup_repeats = std::stoi(value);
      else if (key == "window-ms") o->window_ms = std::stod(value);
      else if (key == "tape") o->tape = std::stoull(value);
      else if (key == "warmup") o->warmup_s = std::stod(value);
      else if (key == "work-dir") o->work_dir = value;
      else if (key == "fault") o->fault = value;
      else if (key == "trace-out") o->trace_out = value;
      else throw std::invalid_argument("unknown option --" + key);
    }
  } catch (const std::exception& e) {
    *error = std::string("bad arguments: ") + e.what();
    return false;
  }
  if (o->workload.empty() || o->ladder.empty() || o->worlds < 1 ||
      o->seconds <= 0 || o->ref_rate <= 0) {
    *error = "need --workload, --ladder, --worlds >= 1, --seconds > 0";
    return false;
  }
  return true;
}

struct World {
  std::uint64_t seed = 0;
  hobbit::netsim::Internet internet;
};

/// What one setup builds; the last repetition's is kept.
struct Setup {
  std::vector<World> worlds;
  std::unique_ptr<hobbit::common::ThreadPool> pool;
  BlockMap census;                          ///< the first epoch's map
  std::optional<serve::Snapshot> census_a;  ///< loaded, fully verified
};

Setup RunSetup(const Options& o, const std::string& file_a, Tracer* tracer,
               std::string* error) {
  Setup setup;
  for (int k = 0; k < o.worlds; ++k) {
    Tracer::Scope span(tracer, "netsim.BuildInternet");
    hobbit::netsim::InternetConfig config;
    config.seed = Mix(o.seed, static_cast<std::uint64_t>(k));
    config.scale = o.scale;
    setup.worlds.push_back(World{config.seed, hobbit::netsim::BuildInternet(config)});
  }
  {
    Tracer::Scope span(tracer, "common.ThreadPool");
    setup.pool = std::make_unique<hobbit::common::ThreadPool>(kPoolThreads);
    setup.pool->ForEachChunk(kPoolThreads, 1, [](hobbit::common::ChunkRange) {});
  }
  if (o.census > 0) {
    {
      Tracer::Scope span(tracer, "setup.SynthesizeCensus");
      setup.census = SynthesizeCensus(o.census, Mix(o.seed, 101));
    }
    {
      Tracer::Scope span(tracer, "setup.WriteSnapshot");
      if (!WriteSnapshot(setup.census, 1, file_a, error)) return setup;
    }
    Tracer::Scope span(tracer, "setup.Snapshot::FromFile");
    setup.census_a = serve::Snapshot::FromFile(file_a, error);
  }
  return setup;
}

void PinToCpu(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

/// Per-call cost of `body` in ns, repeating over `count` items for about
/// `seconds`.
template <typename Body>
double NsPerItem(std::size_t count, double seconds, Body&& body) {
  const std::int64_t start = NowNs();
  std::size_t done = 0;
  do {
    body();
    done += count;
  } while (SecondsSince(start) < seconds);
  return static_cast<double>(NowNs() - start) / static_cast<double>(done);
}

int Main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!Parse(argc, argv, &o, &error)) {
    std::cerr << "e2ebench: " << error << "\n";
    return 2;
  }
  ::mkdir(o.work_dir.c_str(), 0755);
  const std::string tag = o.work_dir + "/" + o.workload + "-" + std::to_string(o.seed) +
                          "-" + std::to_string(::getpid());
  const std::string file_a = tag + "-a.snap";
  const std::string file_b = tag + "-b.snap";
  // The two served epochs (~50 MB each) go whatever way the run ends.
  struct RemoveOnExit {
    const std::string* paths[2];
    ~RemoveOnExit() {
      for (const std::string* path : paths) ::unlink(path->c_str());
    }
  } remove_on_exit{{&file_a, &file_b}};
  Tracer tracer(o.trace, Mix(o.seed, static_cast<std::uint64_t>(NowNs())));
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto fail = [&](const std::string& what) {
    std::cerr << "e2ebench: check failed: " << what << "\n";
    ++failed;
  };

  // --- setup -----------------------------------------------------------
  std::vector<double> setup_s;
  Setup setup;
  for (int r = 0; r < std::max(1, o.setup_repeats); ++r) {
    setup = Setup{};  // release the previous repetition first
    const std::int64_t t0 = NowNs();
    setup = RunSetup(o, file_a, &tracer, &error);
    setup_s.push_back(SecondsSince(t0));
    if (o.census > 0 && !setup.census_a) {
      std::cerr << "e2ebench: census setup failed: " << error << "\n";
      return 1;
    }
  }
  layer.push_back({"netsim.build_s", tracer.TotalSeconds("netsim.BuildInternet") /
                                         std::max(1, o.setup_repeats), "s"});

  // --- campaign --------------------------------------------------------
  const double campaign_budget = o.seconds * o.frac_campaign;
  const std::int64_t campaign_start = NowNs();
  std::vector<std::vector<double>> walls(setup.worlds.size());
  std::vector<std::size_t> study(setup.worlds.size(), 0);
  std::vector<std::uint64_t> checksums(setup.worlds.size(), 0);
  hobbit::analysis::VerdictEvaluation verdicts;
  hobbit::analysis::AggregationEvaluation purity;
  std::uint64_t probes = 0;
  BlockMap served_map;  // world 0's output, served when there is no census
  struct PassTotals {
    double wall = 0, pipeline_cpu = 0, pipeline_wall = 0, validate_cpu = 0,
           validate_wall = 0;
    std::size_t aggregates = 0, clusters = 0, validated = 0;
    double snapshot_s = 0, calibration_s = 0, measurement_s = 0;
  } first_pass;
  for (int pass = 0;; ++pass) {
    for (std::size_t k = 0; k < setup.worlds.size(); ++k) {
      ++attempted;
      ChainResult chain = RunChain(setup.worlds[k].internet, setup.worlds[k].seed,
                                   o.scale, setup.pool.get(), &tracer,
                                   o.fault == "block" && pass == 0 && k == 0);
      walls[k].push_back(chain.wall_s);
      const std::uint64_t checksum = chain.snapshot ? chain.snapshot->checksum() : 0;
      if (!chain.error.empty()) {
        fail("campaign world " + std::to_string(k) + ": " + chain.error);
      } else if (pass > 0 && checksum != checksums[k]) {
        fail("campaign world " + std::to_string(k) + " is not deterministic");
      }
      if (pass > 0) continue;
      checksums[k] = checksum;
      study[k] = chain.pipeline.stats.study_24s;
      probes += chain.pipeline.stats.probes_sent;
      const auto v = hobbit::analysis::EvaluateVerdicts(setup.worlds[k].internet,
                                                        chain.pipeline);
      verdicts.true_homogeneous += v.true_homogeneous;
      verdicts.false_homogeneous += v.false_homogeneous;
      verdicts.true_heterogeneous += v.true_heterogeneous;
      verdicts.false_heterogeneous += v.false_heterogeneous;
      const auto a = hobbit::analysis::EvaluateAggregation(setup.worlds[k].internet,
                                                           chain.final_blocks);
      purity.blocks += a.blocks;
      purity.pure_blocks += a.pure_blocks;
      first_pass.wall += chain.wall_s;
      first_pass.pipeline_cpu += chain.pipeline_cpu_s;
      first_pass.pipeline_wall += chain.pipeline_wall_s;
      first_pass.validate_cpu += chain.validate_cpu_s;
      first_pass.validate_wall += chain.validate_wall_s;
      first_pass.aggregates += chain.aggregates;
      first_pass.clusters += chain.clusters;
      first_pass.validated += chain.validated;
      first_pass.snapshot_s += chain.pipeline.stats.snapshot_seconds;
      first_pass.calibration_s += chain.pipeline.stats.calibration_seconds;
      first_pass.measurement_s += chain.pipeline.stats.measurement_seconds;
      if (k == 0 && o.census == 0) served_map = CampaignMap(chain.pipeline, chain.final_blocks);
    }
    // Another pass only if it fits the budget at the pace of this one.
    const double elapsed = SecondsSince(campaign_start);
    if (elapsed * (pass + 2) / (pass + 1) > campaign_budget) break;
  }
  std::size_t study_total = 0;
  double wall_total = 0.0;
  for (std::size_t k = 0; k < walls.size(); ++k) {
    study_total += study[k];
    wall_total += Median(walls[k]);
  }
  const double blocks_per_s = static_cast<double>(study_total) / wall_total;

  // --- serve -----------------------------------------------------------
  std::optional<serve::Snapshot> snap_a;
  std::optional<serve::Snapshot> snap_b;
  {
    if (o.census == 0) {
      if (!WriteSnapshot(served_map, 1, file_a, &error) ||
          !WriteSnapshot(NextEpoch(served_map, 0.01, Mix(o.seed, 102)), 2, file_b,
                         &error)) {
        std::cerr << "e2ebench: " << error << "\n";
        return 1;
      }
      served_map = BlockMap{};
      snap_a = serve::Snapshot::FromFile(file_a, &error);
    } else {
      // The second epoch is served only after RELOAD; not part of setup.
      if (!WriteSnapshot(NextEpoch(setup.census, 0.01, Mix(o.seed, 102)), 2, file_b,
                         &error)) {
        std::cerr << "e2ebench: " << error << "\n";
        return 1;
      }
      setup.census = BlockMap{};
      snap_a = std::move(setup.census_a);
    }
    if (snap_a) snap_b = serve::Snapshot::FromFile(file_b, &error);
    if (!snap_a || !snap_b) {
      std::cerr << "e2ebench: cannot load served snapshots: " << error << "\n";
      return 1;
    }
  }
  const QueryTape tape = MakeQueryTape({&*snap_a, &*snap_b}, o.tape, Mix(o.seed, 103));
  const ExpectedReplies expected_a(*snap_a, tape);
  const ExpectedReplies expected_b(*snap_b, tape);

  serve::SnapshotStore store;
  serve::ServeMetrics serve_metrics;
  if (!store.ReloadFromFile(file_a, &error)) {
    std::cerr << "e2ebench: initial load failed: " << error << "\n";
    return 1;
  }
  serve::Reactor reactor(&store, &serve_metrics, nullptr);
  if (!reactor.Listen(&error)) {
    std::cerr << "e2ebench: listen failed: " << error << "\n";
    return 1;
  }
  std::thread reactor_thread([&reactor] { reactor.Run(); });
  // Separate, fixed CPUs for the reactor and the generator (this thread):
  // where the scheduler put them moved p50 by a third from run to run.
  if (std::thread::hardware_concurrency() >= 3) {
    PinToCpu(reactor_thread.native_handle(), 1);
    PinToCpu(pthread_self(), 2);
  }
  LoadgenOptions gen_options;
  gen_options.traffic = o.traffic;
  gen_options.batch = o.batch;
  gen_options.connections = o.connections;
  if (o.fault == "reply") gen_options.corrupt_reply = 1000;
  std::vector<ReloadTarget> reloads = {{file_a, 1}, {file_b, 2}};
  WindowResult ref;
  WindowResult reload_window;
  std::vector<StepOutcome> steps;
  std::vector<WindowResult> step_results;
  {
    LoadGenerator gen(reactor.port(), reactor_thread.native_handle(), &tape,
                      &expected_a, &expected_b, reloads, gen_options);
    if (!gen.Connect(&error)) {
      std::cerr << "e2ebench: " << error << "\n";
      reactor.Stop();
      reactor_thread.join();
      return 1;
    }
    auto count = [&](const WindowResult& w) {
      attempted += w.attempted;
      failed += w.failed;
      if (w.failed > 0) {
        std::cerr << "e2ebench: check failed: " << w.failed
                  << " replies wrong or missing\n";
      }
    };
    // Warm-up at the reference rate: the first lookups build the Eytzinger
    // index and the connection buffers grow; not measured.
    count(gen.Run(WindowSpec{o.ref_rate, o.warmup_s, 0.0, 0.0}));
    {
      Tracer::Scope span(&tracer, "serve.reference_window");
      ref = gen.Run(WindowSpec{o.ref_rate, o.seconds * o.frac_ref, o.window_ms,
                               o.ref_reloads ? o.reload_period_s : 0.0});
      // With RELOADs in the window the stall is the point: whole-window p99.
      if (o.ref_reloads) ref.p99_us = ref.p99_whole_us;
      count(ref);
    }
    if (o.frac_reload > 0) {
      Tracer::Scope span(&tracer, "serve.reload_window");
      reload_window = gen.Run(WindowSpec{o.ref_rate, o.seconds * o.frac_reload,
                                         o.window_ms, o.reload_period_s});
      count(reload_window);
    } else {
      reload_window = ref;
    }
    // The ladder is host-bound on a shared VM (see README), so only the
    // traced run climbs it and its results are per-layer metrics.
    for (double rate : o.trace ? o.ladder : std::vector<double>{}) {
      Tracer::Scope span(&tracer, "serve.ladder_step");
      WindowResult w = gen.Run(WindowSpec{rate, o.step_s, o.window_ms, 0.0});
      count(w);
      StepOutcome step;
      step.rate = rate;
      // Overload degrades every sub-window; host preemption only some.
      step.p99_us = w.p99_quiet_us;
      step.replies_ok = w.failed == 0;
      step.generator_valid = w.late_p99_us <= kLateLimitUs;
      step.backlog_ok = static_cast<double>(w.backlog_at_end) <=
                        rate * kP99LimitUs * 1e-6 + o.connections;
      steps.push_back(step);
      step_results.push_back(w);
      std::cerr << "[ladder] rate=" << rate << " p50=" << w.p50_us
                << "us p99=" << step.p99_us << "us late_p99=" << w.late_p99_us
                << "us backlog=" << w.backlog_at_end << " busy=" << w.reactor_busy
                << (step.Passes(kP99LimitUs) ? " pass" : " FAIL") << "\n";
    }
  }
  reactor.Stop();
  reactor_thread.join();
  const double max_rate = MaxPassingRate(steps, kP99LimitUs);
  std::cerr << "[serve] ref p50=" << ref.p50_us << "us p99=" << ref.p99_us
            << "us busy=" << ref.reactor_busy << " reload_s=" << Median(reload_window.reload_s)
            << " (" << reload_window.reload_s.size() << " reloads) max_rate="
            << max_rate << "\n";

  // --- metrics ---------------------------------------------------------
  const double probes_per_block =
      static_cast<double>(probes) / static_cast<double>(study_total);
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMib(), "MiB"});
  e2e.push_back({"ok_frac", attempted == 0 ? 0.0
                                           : static_cast<double>(attempted - failed) /
                                                 static_cast<double>(attempted),
                 "ratio"});
  e2e.push_back({"blocks_per_s", blocks_per_s, "1/s"});
  e2e.push_back({"probes_per_block", probes_per_block, "count"});
  e2e.push_back({"verdict_accuracy", verdicts.Accuracy(), "ratio"});
  e2e.push_back({"block_purity", purity.Purity(), "ratio"});
  e2e.push_back({"p50_us", ref.p50_us, "us"});
  e2e.push_back({"reload_s", Median(reload_window.reload_s), "s"});

  if (o.trace) {
    // Traced-only layer timings, in-process on the served snapshot.
    {
      serve::SnapshotStore local;
      local.Swap(std::make_shared<const serve::Snapshot>(*snap_a));
      serve::ServeMetrics local_metrics;
      serve::LineService service(&local, &local_metrics, nullptr);
      std::vector<std::string> lines;
      for (const std::string& text : tape.text) lines.push_back("LOOKUP " + text);
      std::istringstream no_input;
      std::ostringstream sink;
      service.HandleCommand(lines[0], no_input, sink);  // builds the index
      layer.push_back({"serve.service_ns", NsPerItem(lines.size(), 0.3, [&] {
                         for (const std::string& line : lines) {
                           sink.str(std::string());
                           service.HandleCommand(line, no_input, sink);
                         }
                       }), "ns"});
    }
    serve::EytzingerIndex index;
    {
      Tracer::Scope span(&tracer, "serve.EytzingerIndex::Build");
      const std::int64_t t0 = NowNs();
      index = serve::EytzingerIndex::Build(*snap_a);
      layer.push_back({"serve.index_build_s", SecondsSince(t0), "s"});
    }
    const serve::LookupEngine engine(*snap_a, &index);
    std::vector<std::uint32_t> keys;
    for (std::uint32_t address : tape.addresses) keys.push_back(address & 0xFFFFFF00u);
    std::uint64_t found = 0;
    layer.push_back({"serve.lookup_ns", NsPerItem(keys.size(), 0.3, [&] {
                       for (std::uint32_t key : keys) {
                         found += engine.Lookup(hobbit::netsim::Ipv4Address(key)).found;
                       }
                     }), "ns"});
    std::vector<serve::LookupResult> answers(keys.size());
    layer.push_back({"serve.batch_lookup_ns", NsPerItem(keys.size(), 0.3, [&] {
                       engine.LookupBatch(keys, answers);
                     }), "ns"});
    if (found == 0) fail("in-process lookups found nothing");
    {
      Tracer::Scope span(&tracer, "serve.Snapshot::FromFile");
      const std::int64_t t0 = NowNs();
      const auto loaded = serve::Snapshot::FromFile(file_a, &error);
      layer.push_back({"serve.snapshot_load_s", SecondsSince(t0), "s"});
      if (!loaded) fail("snapshot reload from file: " + error);
    }

    const double timed = tracer.TotalSeconds("hobbit.RunPipeline") +
                         tracer.TotalSeconds("hobbit.HomogeneousBlocks") +
                         tracer.TotalSeconds("cluster.AggregateIdentical") +
                         tracer.TotalSeconds("cluster.BuildSimilarityGraph") +
                         tracer.TotalSeconds("cluster.RunMclAggregation") +
                         tracer.TotalSeconds("cluster.ValidateClusters") +
                         tracer.TotalSeconds("cluster.MergeValidatedClusters") +
                         tracer.TotalSeconds("serve.CompileSnapshotV2") +
                         tracer.TotalSeconds("serve.Snapshot::FromBuffer");
    const double chains = tracer.TotalSeconds("campaign.chain");
    const double passes = chains / std::max(1e-9, first_pass.wall);
    const double per_pass = 1.0 / std::max(1e-9, passes);
    const double threads = static_cast<double>(setup.pool->thread_count());
    layer.push_back({"campaign.wall_s", first_pass.wall, "s"});
    layer.push_back({"campaign.unattributed_s", (chains - timed) * per_pass, "s"});
    layer.push_back({"campaign.traced_blocks_per_s", blocks_per_s, "1/s"});
    layer.push_back({"hobbit.snapshot_s", first_pass.snapshot_s, "s"});
    layer.push_back({"hobbit.calibration_s", first_pass.calibration_s, "s"});
    layer.push_back({"hobbit.measurement_s", first_pass.measurement_s, "s"});
    layer.push_back({"hobbit.pipeline_util",
                     first_pass.pipeline_cpu / (first_pass.pipeline_wall * threads),
                     "ratio"});
    layer.push_back({"cluster.aggregate_s",
                     tracer.TotalSeconds("cluster.AggregateIdentical") * per_pass, "s"});
    layer.push_back({"cluster.graph_s",
                     tracer.TotalSeconds("cluster.BuildSimilarityGraph") * per_pass, "s"});
    layer.push_back({"cluster.mcl_s",
                     tracer.TotalSeconds("cluster.RunMclAggregation") * per_pass, "s"});
    layer.push_back({"cluster.validate_s", first_pass.validate_wall, "s"});
    layer.push_back({"cluster.validate_util",
                     first_pass.validate_cpu / (first_pass.validate_wall * threads),
                     "ratio"});
    layer.push_back({"cluster.merge_s",
                     tracer.TotalSeconds("cluster.MergeValidatedClusters") * per_pass, "s"});
    layer.push_back({"serve.compile_s",
                     tracer.TotalSeconds("serve.CompileSnapshotV2") * per_pass, "s"});
    layer.push_back({"serve.load_s",
                     tracer.TotalSeconds("serve.Snapshot::FromBuffer") * per_pass, "s"});
    layer.push_back({"netsim.probes_sent", static_cast<double>(probes), "count"});
    layer.push_back({"cluster.aggregates", static_cast<double>(first_pass.aggregates), "count"});
    layer.push_back({"cluster.clusters", static_cast<double>(first_pass.clusters), "count"});
    layer.push_back({"cluster.validated_frac",
                     first_pass.clusters == 0
                         ? 0.0
                         : static_cast<double>(first_pass.validated) /
                               static_cast<double>(first_pass.clusters),
                     "ratio"});
    layer.push_back({"serve.p99_us", ref.p99_us, "us"});
    layer.push_back({"serve.max_rate_rps", max_rate, "1/s"});
    layer.push_back({"serve.reactor_busy", ref.reactor_busy, "ratio"});
    layer.push_back({"serve.traced_p50_us", ref.p50_us, "us"});
    layer.push_back({"serve.gen_late_us_p99", ref.late_p99_us, "us"});
    layer.push_back({"serve.reload_stall_ms", Median(reload_window.reload_stall_ms), "ms"});
    layer.push_back({"serve.reload_window_busy", reload_window.reactor_busy, "ratio"});
    const auto& rs = reactor.stats();
    const double commands = static_cast<double>(rs.commands.load());
    layer.push_back({"serve.bytes_out_per_req",
                     static_cast<double>(rs.bytes_out.load()) / std::max(1.0, commands),
                     "bytes"});
    layer.push_back({"serve.backpressure_pauses",
                     static_cast<double>(rs.backpressure_pauses.load()), "count"});
    for (std::size_t s = 0; s < step_results.size(); ++s) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "serve.step%02zu.", s + 1);
      const WindowResult& w = step_results[s];
      layer.push_back({prefix + std::string("rate_rps"), steps[s].rate, "1/s"});
      layer.push_back({prefix + std::string("p50_us"), w.p50_us, "us"});
      layer.push_back({prefix + std::string("p99_us"), steps[s].p99_us, "us"});
      layer.push_back({prefix + std::string("reactor_busy"), w.reactor_busy, "ratio"});
      layer.push_back({prefix + std::string("gen_late_us_p99"), w.late_p99_us, "us"});
      layer.push_back({prefix + std::string("pass"),
                       steps[s].Passes(kP99LimitUs) ? 1.0 : 0.0, "bool"});
    }
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) {
      std::cerr << "e2ebench: cannot write " << o.trace_out << "\n";
    }
  }
  std::cerr << "[result]";
  for (const Metric& m : e2e) std::cerr << " " << m.name << "=" << m.value;
  std::cerr << "\n";
  const bool correct = failed == 0;
  std::cout << "stamp {\"simd_tier\": "
            << JsonString(hobbit::common::simd::TierName(hobbit::common::simd::ActiveTier()))
            << ", \"threads_hw\": " << std::thread::hardware_concurrency() << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(o.trace ? layer : e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
