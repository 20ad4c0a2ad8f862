#include "common.h"

#include <sys/resource.h>

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/parallel.h"

#ifndef HOBBIT_REPO_ROOT
#define HOBBIT_REPO_ROOT "."
#endif

namespace hobbit::bench {
namespace {

double ParseEnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

std::uint64_t ParseEnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  std::uint64_t parsed = std::strtoull(value, &end, 10);
  return end != value ? parsed : fallback;
}

World BuildWorld() {
  World world;
  world.scale = WorldScale();
  world.seed = WorldSeed();

  auto t0 = std::chrono::steady_clock::now();
  netsim::InternetConfig config;
  config.seed = world.seed;
  config.scale = world.scale;
  world.internet = netsim::BuildInternet(config);

  // One pool serves every stage: probing, MCL clustering, validation.
  common::ThreadPool pool(static_cast<int>(
      std::min(8u, std::max(1u, std::thread::hardware_concurrency()))));
  core::PipelineConfig pipeline_config;
  pipeline_config.seed = world.seed;
  pipeline_config.pool = &pool;
  pipeline_config.calibration_blocks =
      std::max(200, static_cast<int>(1200 * world.scale));
  pipeline_config.samples_per_block = 64;
  world.pipeline = core::RunPipeline(world.internet, pipeline_config);

  world.homogeneous = world.pipeline.HomogeneousBlocks();
  world.aggregates = cluster::AggregateIdentical(world.homogeneous);
  cluster::MclAggregationParams mcl_params;
  mcl_params.mcl.pool = &pool;
  world.mcl = cluster::RunMclAggregation(world.aggregates, mcl_params);
  cluster::ValidationParams validation;
  validation.pool = &pool;
  cluster::ValidateClusters(world.internet, world.pipeline.study_blocks,
                            world.aggregates, world.mcl, validation);
  world.final_blocks =
      cluster::MergeValidatedClusters(world.aggregates, world.mcl);

  auto t1 = std::chrono::steady_clock::now();
  std::cerr << "[world] scale=" << world.scale << " seed=" << world.seed
            << " study_24s=" << world.pipeline.stats.study_24s
            << " probes=" << world.pipeline.stats.probes_sent
            << " built in "
            << std::chrono::duration<double>(t1 - t0).count() << "s\n";
  return world;
}

}  // namespace

double WorldScale() { return ParseEnvDouble("HOBBIT_SCALE", 0.25); }

std::uint64_t WorldSeed() { return ParseEnvU64("HOBBIT_SEED", 42); }

double ProcessCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

const World& GetWorld() {
  static World world = BuildWorld();
  return world;
}

namespace {

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string RunGitLine(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  char buffer[128] = {0};
  std::string line;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    line = buffer;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
  }
  ::pclose(pipe);
  return line;
}

std::string CurrentCommit() {
  if (const char* env = std::getenv("HOBBIT_COMMIT");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string line = RunGitLine(
      "git -C \"" HOBBIT_REPO_ROOT "\" rev-parse --short HEAD 2>/dev/null");
  if (!line.empty()) return line;
  // rev-parse fails on e.g. a shallow export with no HEAD ref; describe
  // --always still resolves anything with objects, and --dirty marks
  // uncommitted state so a report never masquerades as a clean commit.
  line = RunGitLine(
      "git -C \"" HOBBIT_REPO_ROOT
      "\" describe --always --dirty 2>/dev/null");
  if (!line.empty()) return line;
  // A report without a commit stamp cannot be diffed against history, so
  // refuse to produce one rather than writing "unknown" into a JSON that
  // looks authoritative.
  std::cerr << "[bench] fatal: cannot resolve the current commit -- set "
               "HOBBIT_COMMIT or run inside the git checkout\n";
  std::exit(1);
}

void AppendObject(
    std::ostringstream& os,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  os << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os << ", ";
    os << JsonString(fields[i].first) << ": " << fields[i].second;
  }
  os << '}';
}

}  // namespace

JsonReporter::JsonReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  Config("threads_hw",
         static_cast<double>(std::thread::hardware_concurrency()));
}

void JsonReporter::Config(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void JsonReporter::Config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, JsonString(value));
}

void JsonReporter::Metric(const std::string& key, double value) {
  metrics_.emplace_back(key, JsonNumber(value));
}

void JsonReporter::Metric(const std::string& key, const std::string& value) {
  metrics_.emplace_back(key, JsonString(value));
}

std::string JsonReporter::ToJson() const {
  std::ostringstream os;
  os << "{\"bench\": " << JsonString(bench_name_) << ", \"config\": ";
  AppendObject(os, config_);
  os << ", \"metrics\": ";
  AppendObject(os, metrics_);
  os << ", \"commit\": " << JsonString(CurrentCommit()) << "}\n";
  return os.str();
}

void JsonReporter::MarkPartial(std::string reason) {
  partial_reason_ = std::move(reason);
}

std::string JsonReporter::Write() const {
  const char* dir = std::getenv("HOBBIT_BENCH_DIR");
  const bool chosen = dir != nullptr && *dir != '\0';
  const bool beside_binary = !chosen && !partial_reason_.empty();
  std::string path = chosen          ? dir
                     : beside_binary ? HOBBIT_BENCH_BINARY_DIR
                                     : HOBBIT_REPO_ROOT;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "BENCH_" + bench_name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[bench] cannot write " << path << "\n";
    return "";
  }
  out << ToJson();
  std::cerr << "[bench] wrote " << path << "\n";
  if (beside_binary) {
    std::cerr << "[bench] partial run (" << partial_reason_
              << "): the checked-in " << HOBBIT_REPO_ROOT << "/BENCH_"
              << bench_name_
              << ".json is left as is; set HOBBIT_BENCH_DIR to choose where "
                 "the report goes\n";
  }
  return path;
}

void PrintHeader(const std::string& experiment,
                 const std::string& paper_reference) {
  std::cout << "==================================================\n"
            << experiment << "  (" << paper_reference << ")\n"
            << "scale=" << WorldScale() << " seed=" << WorldSeed()
            << "  -- compare shapes/ratios, not absolute counts\n"
            << "==================================================\n";
}

}  // namespace hobbit::bench
