// common.h — shared state for the per-table/per-figure bench binaries.
//
// Every bench needs the same expensive artifacts: a generated Internet,
// the full Hobbit pipeline run, and the aggregation stages.  `GetWorld()`
// builds them once per process, at a scale controlled by the HOBBIT_SCALE
// environment variable (default 0.25; 1.0 reproduces the full
// paper-shaped census of ~85k /24s) and seed HOBBIT_SEED (default 42).
//
// Absolute counts scale with HOBBIT_SCALE; the ratios and shapes that the
// paper reports are scale-free, which is what EXPERIMENTS.md compares.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cluster/aggregate.h"
#include "hobbit/pipeline.h"
#include "netsim/internet.h"

namespace hobbit::bench {

struct World {
  netsim::Internet internet;
  core::PipelineResult pipeline;
  /// Homogeneous /24s (pointers into pipeline.results).
  std::vector<const core::BlockResult*> homogeneous;
  /// §5 exact aggregation.
  std::vector<cluster::AggregateBlock> aggregates;
  /// §6 MCL aggregation, validated by reprobing.
  cluster::MclAggregationResult mcl;
  /// Final block list after merging validated clusters.
  std::vector<cluster::AggregateBlock> final_blocks;

  double scale = 0.25;
  std::uint64_t seed = 42;
};

/// Builds (once) and returns the shared world.
const World& GetWorld();

/// Scale/seed actually in use (parsed from the environment).
double WorldScale();
std::uint64_t WorldSeed();

/// User plus system CPU seconds this process has used so far
/// (getrusage RUSAGE_SELF).  A scaling smoke prints its delta over the
/// timed passes when a floor fails: about wall seconds means the process
/// got one CPU's worth of time, about N times wall means N.
double ProcessCpuSeconds();

/// Prints the standard bench header (experiment id + scale note).
void PrintHeader(const std::string& experiment,
                 const std::string& paper_reference);

/// Machine-readable bench results.  Accumulates configuration and metric
/// key/value pairs and writes them as
///   {"bench": <name>, "config": {...}, "metrics": {...}, "commit": <sha>}
/// to `BENCH_<name>.json` at the repo root (overridable with the
/// HOBBIT_BENCH_DIR environment variable), so CI and EXPERIMENTS.md
/// tooling can diff runs without scraping stdout.  A partial run (see
/// MarkPartial) never overwrites the checked-in repo-root file: without
/// HOBBIT_BENCH_DIR it is written beside the bench binaries.  The commit
/// comes from HOBBIT_COMMIT when set, else `git rev-parse --short HEAD`.
class JsonReporter {
 public:
  /// Every report starts with a `threads_hw` config entry (the machine's
  /// hardware concurrency) so scaling numbers can be judged against the
  /// hardware they were measured on.
  explicit JsonReporter(std::string bench_name);

  void Config(const std::string& key, double value);
  void Config(const std::string& key, const std::string& value);
  void Metric(const std::string& key, double value);
  /// String-valued metric (e.g. "scaling_gates": "skipped-1core" when a
  /// single-core machine cannot exercise multi-thread speedup gates).
  void Metric(const std::string& key, const std::string& value);

  /// Marks the report as partial — a `--quick` run, or a benchmark
  /// filter that drops metrics — with `reason` naming why.
  void MarkPartial(std::string reason);

  /// Serializes the report.  Keys keep insertion order.
  std::string ToJson() const;

  /// Writes BENCH_<bench_name>.json; returns the path written, or an
  /// empty string (with a note on stderr) when the file cannot be
  /// opened.
  std::string Write() const;

 private:
  std::string bench_name_;
  std::string partial_reason_;  ///< empty for a full run
  /// Values are pre-rendered JSON tokens (quoted strings or numbers).
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

}  // namespace hobbit::bench
