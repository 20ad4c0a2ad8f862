// hobbit_sim — command-line driver for the whole library.
//
// The synthetic Internet is deterministic in (seed, scale), so every
// subcommand regenerates the world it needs; measurement artifacts are
// exchanged through the text formats in hobbit/resultio.h and
// cluster/blockio.h.
//
//   hobbit_sim generate   [--seed N] [--scale S]
//   hobbit_sim measure    [--seed N] [--scale S] [--threads T]
//                         [--results FILE] [--blocks FILE] [--mcl]
//   hobbit_sim classify   <prefix/24> [--seed N] [--scale S]
//   hobbit_sim traceroute <address>   [--seed N] [--scale S] [--mda]
//   hobbit_sim rdns       <address>   [--seed N] [--scale S]
//   hobbit_sim whois      <prefix>    [--seed N] [--scale S]
//   hobbit_sim stats      --results FILE
//   hobbit_sim lookup     <prefix/24> --blocks FILE
//   hobbit_sim export-snapshot --out FILE [--blocks FILE [--results FILE]]
//                         [--seed N] [--scale S] [--threads T] [--mcl]
//                         [--epoch E]
//   hobbit_sim stream-campaign [--seed N] [--scale S] [--threads T]
//                         [--window W] [--segment B] [--publish-every K]
//                         [--churn-every M] [--out FILE] [--epoch E]
//   hobbit_sim scenario   [--seed N] [--scale S] [--threads T]
//                         [--loss P] [--ratelimit P] [--loops P]
//                         [--churn N] [--perpacket N] [--outage PREFIX]
//                         [--segment B] [--mda-lite] [--stream]

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "cluster/aggregate.h"
#include "cluster/blockio.h"
#include "common/parallel.h"
#include "hobbit/hierarchy.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"
#include "netsim/rdns.h"
#include "parse_number.h"
#include "probing/traceroute.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "scenario/scenario.h"
#include "scenario/scenario_stream.h"
#include "stream/stream.h"

namespace {

using namespace hobbit;

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  /// --threads: the size of the one pool a campaign command builds and
  /// shares across stages.
  int threads = 1;
  /// The integer and real flags given, as parsed by ParseArgs.
  std::map<std::string, std::uint64_t> integers;
  std::map<std::string, double> reals;

  bool Has(const std::string& flag) const { return flags.count(flag) > 0; }
  std::string Get(const std::string& flag,
                  const std::string& fallback) const {
    auto pos = flags.find(flag);
    return pos == flags.end() ? fallback : pos->second;
  }
  std::uint64_t Integer(const std::string& flag,
                        std::uint64_t fallback) const {
    auto pos = integers.find(flag);
    return pos == integers.end() ? fallback : pos->second;
  }
  double Real(const std::string& flag, double fallback) const {
    auto pos = reals.find(flag);
    return pos == reals.end() ? fallback : pos->second;
  }
};

enum class FlagKind { kBoolean, kText, kThreads, kInteger, kReal };

struct FlagSpec {
  const char* name;
  FlagKind kind;
  double min = 0.0;  ///< kReal only: the accepted range
  double max = 0.0;
};

/// Every flag some command reads; any other `--name` is refused.  A
/// boolean flag takes no value, the rest consume the next token.
constexpr FlagSpec kFlags[] = {
    {"mcl", FlagKind::kBoolean},
    {"mda", FlagKind::kBoolean},
    {"mda-lite", FlagKind::kBoolean},
    {"stream", FlagKind::kBoolean},
    {"results", FlagKind::kText},
    {"blocks", FlagKind::kText},
    {"out", FlagKind::kText},
    {"outage", FlagKind::kText},
    {"threads", FlagKind::kThreads},
    {"seed", FlagKind::kInteger},
    {"window", FlagKind::kInteger},
    {"segment", FlagKind::kInteger},
    {"publish-every", FlagKind::kInteger},
    {"churn-every", FlagKind::kInteger},
    {"epoch", FlagKind::kInteger},
    {"perpacket", FlagKind::kInteger},
    {"churn", FlagKind::kInteger},
    {"scale", FlagKind::kReal, std::numeric_limits<double>::min(), 100.0},
    {"loss", FlagKind::kReal, 0.0, 1.0},
    {"ratelimit", FlagKind::kReal, 0.0, 1.0},
    {"loops", FlagKind::kReal, 0.0, 1.0}};

/// Splits argv into the command, positionals and flags, parsing every
/// numeric flag strictly, like hobbit_serve: garbage must not read as 0,
/// and no value may ask for an unbounded number of OS threads.  Nullopt
/// on an unknown flag or a bad number, before any command runs.
std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    const FlagSpec* spec = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const FlagSpec& flag) { return name == flag.name; });
    if (spec == std::end(kFlags)) return std::nullopt;
    if (spec->kind == FlagKind::kBoolean) {
      args.flags[name] = '1';  // "1" (the literal trips GCC 12's -Wrestrict)
      continue;
    }
    const std::string value = i + 1 < argc ? argv[++i] : "";
    args.flags[name] = value;
    bool ok = true;
    switch (spec->kind) {
      case FlagKind::kThreads:
        ok = tools::ParseNumber(value, 1, 1024, &args.threads);
        break;
      case FlagKind::kInteger:
        ok = tools::ParseNumber(value, std::uint64_t{0},
                                std::numeric_limits<std::uint64_t>::max(),
                                &args.integers[name]);
        break;
      case FlagKind::kReal:
        ok = tools::ParseNumber(value, spec->min, spec->max,
                                &args.reals[name]);
        break;
      case FlagKind::kBoolean:
      case FlagKind::kText:
        break;
    }
    if (!ok) return std::nullopt;
  }
  return args;
}

netsim::Internet BuildWorld(const Args& args) {
  netsim::InternetConfig config;
  config.seed = args.Integer("seed", 42);
  config.scale = args.Real("scale", 0.1);
  return netsim::BuildInternet(config);
}

int Usage() {
  std::cerr <<
      "usage: hobbit_sim <command> [args]\n"
      "  generate   [--seed N] [--scale S]           world summary\n"
      "  measure    [--seed N] [--scale S] [--threads T]\n"
      "             [--results FILE] [--blocks FILE] [--mcl]\n"
      "  classify   <prefix/24> [--seed N] [--scale S]\n"
      "  traceroute <address> [--seed N] [--scale S] [--mda]\n"
      "  rdns       <address> [--seed N] [--scale S]\n"
      "  whois      <prefix>  [--seed N] [--scale S]\n"
      "  stats      --results FILE\n"
      "  lookup     <prefix/24> --blocks FILE\n"
      "  export-snapshot --out FILE [--blocks FILE [--results FILE]]\n"
      "             [--seed N] [--scale S] [--threads T] [--mcl]\n"
      "             [--epoch E]\n"
      "  stream-campaign [--seed N] [--scale S] [--threads T]\n"
      "             [--window W] [--segment B] [--publish-every K]\n"
      "             [--churn-every M] [--out FILE] [--epoch E]\n"
      "  scenario   [--seed N] [--scale S] [--threads T]\n"
      "             [--loss P] [--ratelimit P] [--loops P]\n"
      "             [--churn N] [--perpacket N] [--outage PREFIX]\n"
      "             [--segment B] [--mda-lite] [--stream]\n"
      "  --threads T takes a plain decimal in 1-1024 (default 1).\n"
      "  --seed, --window, --segment, --publish-every, --churn-every,\n"
      "  --epoch, --perpacket and --churn take a plain decimal; --scale a\n"
      "  number in (0, 100]; --loss, --ratelimit and --loops one in [0, 1].\n"
      "  Any other flag prints this text.\n";
  return 2;
}

int CmdGenerate(const Args& args) {
  netsim::Internet internet = BuildWorld(args);
  std::map<netsim::SubnetKind, std::size_t> kinds;
  for (std::size_t i = 0; i < internet.topology.subnet_count(); ++i) {
    ++kinds[internet.topology.subnet(static_cast<netsim::SubnetId>(i))
                .kind];
  }
  std::size_t heterogeneous = 0;
  for (const auto& truth : internet.truth) {
    heterogeneous += truth.heterogeneous;
  }
  std::cout << "routers:              " << internet.topology.router_count()
            << "\nsubnets (route entries): "
            << internet.topology.subnet_count()
            << "\nstudy /24s:           " << internet.study_24s.size()
            << "\nheterogeneous /24s:   " << heterogeneous
            << "\nautonomous systems:   " << internet.registry.as_count()
            << "\nsubnet kinds:         residential "
            << kinds[netsim::SubnetKind::kResidential] << ", business "
            << kinds[netsim::SubnetKind::kBusiness] << ", datacenter "
            << kinds[netsim::SubnetKind::kDatacenter] << ", cellular "
            << kinds[netsim::SubnetKind::kCellular] << ", hosting "
            << kinds[netsim::SubnetKind::kHosting] << "\n";
  return 0;
}

int CmdMeasure(const Args& args) {
  netsim::Internet internet = BuildWorld(args);
  // One pool serves probing, MCL clustering and validation reprobing;
  // --threads is the single knob for the whole campaign.
  common::ThreadPool pool(args.threads);
  core::PipelineConfig config;
  config.seed = args.Integer("seed", 42);
  config.pool = &pool;
  core::PipelineResult result = core::RunPipeline(internet, config);

  auto counts = result.classification_counts();
  analysis::TextTable table({"class", "count"});
  for (std::size_t c = 0; c < counts.size(); ++c) {
    table.AddRow({core::ToString(static_cast<core::Classification>(c)),
                  std::to_string(counts[c])});
  }
  table.Print(std::cout);

  if (args.Has("results")) {
    std::ofstream out(args.Get("results", ""));
    if (!out) {
      std::cerr << "cannot open results file\n";
      return 1;
    }
    core::WriteResults(out, result.results);
    std::cout << "results -> " << args.Get("results", "") << "\n";
  }
  if (args.Has("blocks")) {
    auto aggregates =
        cluster::AggregateIdentical(result.HomogeneousBlocks());
    if (args.Has("mcl")) {
      cluster::MclAggregationParams mcl_params;
      mcl_params.mcl.pool = &pool;
      auto mcl = cluster::RunMclAggregation(aggregates, mcl_params);
      cluster::ValidationParams validation;
      validation.pool = &pool;
      cluster::ValidateClusters(internet, result.study_blocks, aggregates,
                                mcl, validation);
      aggregates = cluster::MergeValidatedClusters(aggregates, mcl);
    }
    std::ofstream out(args.Get("blocks", ""));
    if (!out) {
      std::cerr << "cannot open blocks file\n";
      return 1;
    }
    cluster::WriteBlocks(out, aggregates);
    std::cout << "blocks (" << aggregates.size() << ") -> "
              << args.Get("blocks", "") << "\n";
  }
  return 0;
}

int CmdClassify(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto prefix = netsim::Prefix::Parse(args.positional[0]);
  if (!prefix || prefix->length() != 24) {
    std::cerr << "need a /24 prefix\n";
    return 2;
  }
  netsim::Internet internet = BuildWorld(args);
  probing::ZmapSnapshot snapshot = probing::RunZmapScan(
      internet, std::span<const netsim::Prefix>(&*prefix, 1));
  if (snapshot.blocks.empty()) {
    std::cout << prefix->ToString() << ": no active addresses\n";
    return 0;
  }
  core::BlockProber prober(internet.simulator.get(), nullptr, {});
  core::BlockResult result =
      prober.ProbeBlock(snapshot.blocks.front(), netsim::Rng(1));
  std::cout << prefix->ToString() << ": "
            << core::ToString(result.classification) << "\n"
            << "snapshot-active: " << result.active_in_snapshot
            << ", usable: " << result.observations.size()
            << ", probes: " << result.probes_used << "\n";
  auto groups = core::GroupByLastHop(result.observations);
  for (const auto& group : groups) {
    std::cout << "  last hop " << group.router.ToString() << ": "
              << group.member_count << " addrs, range ["
              << group.min.ToString() << ", " << group.max.ToString()
              << "], span "
              << netsim::SpanningPrefix(group.min, group.max).ToString()
              << "\n";
  }
  if (groups.size() >= 2) {
    std::cout << "  hierarchy: "
              << (core::GroupsAreHierarchical(groups) ? "hierarchical"
                                                      : "non-hierarchical")
              << ", aligned-disjoint: "
              << (core::IsAlignedDisjoint(groups) ? "yes" : "no") << "\n";
  }
  const netsim::TruthRecord* truth = internet.TruthOf(*prefix);
  if (truth != nullptr) {
    std::cout << "  ground truth: "
              << (truth->heterogeneous ? "heterogeneous" : "homogeneous")
              << "\n";
  }
  return 0;
}

int CmdTraceroute(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto address = netsim::Ipv4Address::Parse(args.positional[0]);
  if (!address) {
    std::cerr << "bad address\n";
    return 2;
  }
  netsim::Internet internet = BuildWorld(args);
  netsim::RouteMemo memo;
  std::uint64_t serial = 1;
  if (args.Has("mda")) {
    auto routes = probing::EnumerateRoutes(*internet.simulator, memo,
                                           *address, serial);
    std::cout << routes.size() << " distinct route(s)\n";
    for (std::size_t r = 0; r < routes.size(); ++r) {
      std::cout << "route " << r + 1 << ":";
      for (const auto& hop : routes[r].hops) {
        std::cout << " "
                  << (hop.responsive ? hop.address.ToString() : "*");
      }
      std::cout << "\n";
    }
  } else {
    probing::Route route = probing::ParisTraceroute(*internet.simulator, memo,
                                                    *address, 1, serial);
    for (std::size_t h = 0; h < route.hops.size(); ++h) {
      std::cout << h + 1 << "  "
                << (route.hops[h].responsive
                        ? route.hops[h].address.ToString()
                        : "*")
                << "\n";
    }
    std::cout << (route.reached_destination ? "destination reached"
                                            : "no reply from destination")
              << "\n";
  }
  return 0;
}

int CmdRdns(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto address = netsim::Ipv4Address::Parse(args.positional[0]);
  if (!address) {
    std::cerr << "bad address\n";
    return 2;
  }
  netsim::Internet internet = BuildWorld(args);
  auto name =
      netsim::RdnsName(internet.RdnsSchemeOf(*address), *address);
  std::cout << address->ToString() << " -> "
            << (name ? *name : std::string("NXDOMAIN")) << "\n";
  return 0;
}

int CmdWhois(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto prefix = netsim::Prefix::Parse(args.positional[0]);
  if (!prefix) {
    std::cerr << "bad prefix\n";
    return 2;
  }
  netsim::Internet internet = BuildWorld(args);
  auto as_index = internet.registry.AsOf(prefix->base());
  if (as_index) {
    const auto& info = internet.registry.as_info(*as_index);
    std::cout << "AS" << info.asn << "  " << info.organization << "  "
              << info.country << "  " << netsim::ToString(info.type)
              << "\n";
  } else {
    std::cout << "no allocation found\n";
  }
  for (const auto& record : internet.registry.WhoisLookup(*prefix)) {
    std::cout << record.prefix.ToString() << "  "
              << record.organization_name << "  " << record.network_type
              << "  " << record.registration_date << "\n";
  }
  return 0;
}

int CmdStats(const Args& args) {
  std::ifstream in(args.Get("results", ""));
  if (!in) {
    std::cerr << "cannot open --results file\n";
    return 1;
  }
  std::string error;
  auto records = core::ReadResults(in, &error);
  if (!records) {
    std::cerr << "parse error: " << error << "\n";
    return 1;
  }
  std::map<core::Classification, std::size_t> counts;
  std::uint64_t probes = 0;
  for (const auto& record : *records) {
    ++counts[record.classification];
    probes += static_cast<std::uint64_t>(record.probes_used);
  }
  analysis::TextTable table({"class", "count", "share"});
  for (const auto& [classification, count] : counts) {
    table.AddRow({core::ToString(classification), std::to_string(count),
                  analysis::Pct(static_cast<double>(count) /
                                static_cast<double>(records->size()))});
  }
  table.Print(std::cout);
  std::cout << records->size() << " /24s, " << probes
            << " probe packets\n";
  return 0;
}

int CmdLookup(const Args& args) {
  if (args.positional.empty()) return Usage();
  auto prefix = netsim::Prefix::Parse(args.positional[0]);
  if (!prefix || prefix->length() != 24) {
    std::cerr << "need a /24 prefix\n";
    return 2;
  }
  std::ifstream in(args.Get("blocks", ""));
  if (!in) {
    std::cerr << "cannot open --blocks file\n";
    return 1;
  }
  std::string error;
  auto blocks = cluster::ReadBlocks(in, &error);
  if (!blocks) {
    std::cerr << "parse error: " << error << "\n";
    return 1;
  }
  cluster::BlockIndex index(*blocks);
  int block = index.BlockOf(*prefix);
  if (block < 0) {
    std::cout << prefix->ToString() << ": not in any block\n";
    return 0;
  }
  const auto& b = (*blocks)[static_cast<std::size_t>(block)];
  std::cout << prefix->ToString() << ": block " << block << " ("
            << b.member_24s.size() << " member /24s, "
            << b.last_hops.size() << " last hops)\n";
  for (const auto& member : b.member_24s) {
    std::cout << "  " << member.ToString() << "\n";
  }
  return 0;
}

// Compiles a campaign into the binary serving snapshot.  Two sources:
// archived text artifacts (--blocks, optionally --results), or — with no
// --blocks — a fresh simulated campaign (seed/scale/threads/mcl flags as
// for `measure`), so results flow straight into the compiler.
int CmdExportSnapshot(const Args& args) {
  if (!args.Has("out")) {
    std::cerr << "export-snapshot needs --out\n";
    return 2;
  }
  std::uint64_t epoch = args.Integer("epoch", 0);
  std::vector<cluster::AggregateBlock> blocks;
  std::vector<serve::ClassifiedPrefix> classified;
  if (args.Has("blocks")) {
    std::ifstream in(args.Get("blocks", ""));
    if (!in) {
      std::cerr << "cannot open --blocks file\n";
      return 1;
    }
    std::string error;
    auto parsed = cluster::ReadBlocks(in, &error);
    if (!parsed) {
      std::cerr << "blocks parse error: " << error << "\n";
      return 1;
    }
    blocks = *std::move(parsed);
    if (args.Has("results")) {
      std::ifstream rin(args.Get("results", ""));
      if (!rin) {
        std::cerr << "cannot open --results file\n";
        return 1;
      }
      auto records = core::ReadResults(rin, &error);
      if (!records) {
        std::cerr << "results parse error: " << error << "\n";
        return 1;
      }
      classified = serve::ClassifiedFrom(*records);
    }
  } else {
    netsim::Internet internet = BuildWorld(args);
    common::ThreadPool pool(args.threads);
    core::PipelineConfig config;
    config.seed = args.Integer("seed", 42);
    config.pool = &pool;
    core::PipelineResult result = core::RunPipeline(internet, config);
    blocks = cluster::AggregateIdentical(result.HomogeneousBlocks());
    if (args.Has("mcl")) {
      cluster::MclAggregationParams mcl_params;
      mcl_params.mcl.pool = &pool;
      auto mcl = cluster::RunMclAggregation(blocks, mcl_params);
      cluster::ValidationParams validation;
      validation.pool = &pool;
      cluster::ValidateClusters(internet, result.study_blocks, blocks, mcl,
                                validation);
      blocks = cluster::MergeValidatedClusters(blocks, mcl);
    }
    classified = serve::ClassifiedFrom(
        std::span<const core::BlockResult>(result.results));
  }
  // The 64-byte-aligned layout serves zero-copy under
  // `hobbit_serve --mmap`; the crash-safe write never truncates a file a
  // running server may have mapped.
  std::vector<std::byte> snapshot =
      serve::CompileSnapshotV2(blocks, classified, epoch);
  std::string error;
  if (!serve::WriteSnapshotFile(args.Get("out", ""), snapshot, &error)) {
    std::cerr << "cannot write --out file: " << error << "\n";
    return 1;
  }
  std::cout << "snapshot (" << blocks.size() << " blocks, "
            << classified.size() << " classified /24s, "
            << snapshot.size() << " bytes, epoch " << epoch << ") -> "
            << args.Get("out", "") << "\n";
  return 0;
}

// The streaming campaign: bounded-memory probing with live publishing
// into an in-process SnapshotStore (one full compile per publish), and
// optional route churn between probe waves (--churn-every M flips ECMP
// orders every M blocks).
int CmdStreamCampaign(const Args& args) {
  netsim::Internet internet = BuildWorld(args);
  common::ThreadPool pool(args.threads);
  serve::SnapshotStore store;

  stream::StreamConfig config;
  config.campaign.seed = args.Integer("seed", 42);
  config.campaign.pool = &pool;
  config.window = args.Integer("window", 256);
  config.segment = args.Integer("segment", 0);
  config.publish_every = args.Integer("publish-every", 0);
  config.epoch_base = args.Integer("epoch", 1);
  config.store = &store;

  const std::size_t churn_every = args.Integer("churn-every", 0);
  netsim::Rng churn_rng = netsim::Rng(config.campaign.seed).Fork(0xC4024ULL);
  std::size_t churn_flips = 0;
  if (churn_every > 0) {
    if (config.segment == 0 || config.segment > churn_every) {
      config.segment = churn_every;
    }
    config.on_segment_boundary = [&](std::size_t) {
      churn_flips +=
          scenario::InjectRouteChurn(internet.topology, churn_rng, 4);
    };
  }
  const std::uint64_t epoch_before = internet.topology.mutation_epoch();

  stream::StreamResult result = stream::RunStreamCampaign(internet, config);
  const stream::StreamStats& stats = result.stats;

  analysis::TextTable table({"class", "count"});
  for (std::size_t c = 0; c < result.classification_counts.size(); ++c) {
    table.AddRow({core::ToString(static_cast<core::Classification>(c)),
                  std::to_string(result.classification_counts[c])});
  }
  table.Print(std::cout);
  std::cout << "measured /24s:      " << stats.measured_24s << "\n"
            << "aggregated blocks:  " << result.blocks.size() << "\n"
            << "probes sent:        " << stats.probes_sent << "\n"
            << "peak in-flight:     " << stats.peak_inflight_results
            << " (bound " << stats.inflight_bound << ")\n"
            << "queue:              pushed=" << stats.results_queue.pushed
            << " push_waits=" << stats.results_queue.push_waits
            << " pop_waits=" << stats.results_queue.pop_waits
            << " peak_depth=" << stats.results_queue.peak_depth << "\n"
            << "publishes:          " << stats.publishes << "\n";
  if (churn_every > 0) {
    std::cout << "route churn:        " << churn_flips
              << " flips (topology mutation epoch "
              << epoch_before << " -> "
              << internet.topology.mutation_epoch() << ")\n";
  }
  if (stats.publish_failures > 0) {
    std::cerr << "stream publish failures: " << stats.publish_failures
              << "\n";
    return 1;
  }
  if (args.Has("out")) {
    std::string error;
    if (!serve::WriteSnapshotFile(args.Get("out", ""), result.final_snapshot,
                                  &error)) {
      std::cerr << "cannot write --out file: " << error << "\n";
      return 1;
    }
    std::cout << "final snapshot (" << result.final_snapshot.size()
              << " bytes, epoch "
              << config.epoch_base + stats.publishes - 1 << ") -> "
              << args.Get("out", "") << "\n";
  }
  return 0;
}

// Robustness scenarios: run a campaign under deterministic measurement
// artifacts (probe loss, rate-limit silence, forwarding loops), world
// events (route churn, per-packet LB reconfiguration, outages) and/or
// MDA-Lite probing, then diff the classifications against a clean
// full-MDA baseline of the same world.
int CmdScenario(const Args& args) {
  const std::uint64_t seed = args.Integer("seed", 42);

  scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.artifacts.seed = seed;
  spec.artifacts.p_probe_loss = args.Real("loss", 0.0);
  spec.artifacts.p_rate_limit = args.Real("ratelimit", 0.0);
  spec.artifacts.p_loop = args.Real("loops", 0.0);
  spec.segment = args.Integer("segment", 0);

  const std::size_t perpacket = args.Integer("perpacket", 0);
  if (perpacket > 0) {
    scenario::ScenarioEvent event;
    event.action = scenario::ScenarioAction::kLbReconfigure;
    event.wave = 0;
    event.count = perpacket;
    spec.events.push_back(event);
  }
  const std::size_t churn = args.Integer("churn", 0);
  if (churn > 0) {
    scenario::ScenarioEvent event;
    event.action = scenario::ScenarioAction::kRouteChurn;
    event.wave = 1;
    event.repeat = 1;  // every boundary
    event.count = churn;
    spec.events.push_back(event);
  }
  if (args.Has("outage")) {
    auto prefix = netsim::Prefix::Parse(args.Get("outage", ""));
    if (!prefix) {
      std::cerr << "cannot parse --outage prefix\n";
      return 2;
    }
    scenario::ScenarioEvent start;
    start.action = scenario::ScenarioAction::kOutageStart;
    start.wave = 1;
    start.prefix = *prefix;
    spec.events.push_back(start);
    scenario::ScenarioEvent end;
    end.action = scenario::ScenarioAction::kOutageEnd;
    end.wave = 3;
    end.prefix = *prefix;
    spec.events.push_back(end);
  }
  // Wave-keyed events need waves to exist: default to 64-block waves
  // when a schedule was requested without an explicit --segment.
  if (spec.segment == 0 && (churn > 0 || args.Has("outage"))) {
    spec.segment = 64;
  }

  // One pool for the clean baseline and the scenario run.
  common::ThreadPool pool(args.threads);
  core::PipelineConfig config;
  config.seed = seed;
  config.pool = &pool;
  config.prober.mda_lite = args.Has("mda-lite");

  // Clean full-MDA baseline on a pristine copy of the same world
  // (scenario events mutate the topology, so each run gets its own).
  netsim::Internet baseline_world = BuildWorld(args);
  core::PipelineConfig baseline_config = config;
  baseline_config.prober.mda_lite = false;
  core::PipelineResult baseline =
      core::RunPipeline(baseline_world, baseline_config);

  netsim::Internet world = BuildWorld(args);
  std::map<std::uint32_t, std::pair<core::Classification, int>> scenario_by;
  std::uint64_t scenario_probes = 0;
  std::array<std::size_t, 5> counts{};
  scenario::ScenarioStats stats;
  if (args.Has("stream")) {
    stream::StreamConfig stream_config;
    stream_config.campaign = config;
    stream::StreamResult streamed =
        scenario::RunScenarioStream(world, stream_config, spec, &stats);
    for (const stream::StreamRecord& record : streamed.records) {
      scenario_by[record.prefix.base().value()] = {record.classification,
                                                   record.probes_used};
    }
    counts = streamed.classification_counts;
    scenario_probes =
        streamed.stats.setup.probes_sent + streamed.stats.probes_sent;
  } else {
    core::PipelineResult run =
        scenario::RunScenarioPipeline(world, config, spec, &stats);
    for (const core::BlockResult& r : run.results) {
      scenario_by[r.prefix.base().value()] = {r.classification,
                                              r.probes_used};
    }
    counts = run.classification_counts();
    scenario_probes = run.stats.probes_sent;
  }

  analysis::TextTable table({"class", "clean", "scenario"});
  const std::array<std::size_t, 5> clean_counts =
      baseline.classification_counts();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    table.AddRow({core::ToString(static_cast<core::Classification>(c)),
                  std::to_string(clean_counts[c]),
                  std::to_string(counts[c])});
  }
  table.Print(std::cout);

  std::size_t agree = 0, moved = 0, missing = 0;
  for (const core::BlockResult& r : baseline.results) {
    auto pos = scenario_by.find(r.prefix.base().value());
    if (pos == scenario_by.end()) {
      ++missing;
    } else if (pos->second.first == r.classification) {
      ++agree;
    } else {
      ++moved;
    }
  }
  const std::size_t total = baseline.results.size();
  std::cout << "clean baseline /24s: " << total << "\n"
            << "agreement:           " << agree << "/" << total
            << " (reclassified " << moved << ", not measured " << missing
            << ")\n"
            << "probes clean:        " << baseline.stats.probes_sent << "\n"
            << "probes scenario:     " << scenario_probes << "\n";
  const scenario::InjectorCounters injected = stats.injector;
  std::cout << "artifacts:           loss=" << injected.probe_losses
            << " ratelimit=" << injected.rate_limit_silences
            << " loops=" << injected.loop_rewrites << "\n"
            << "events:              " << stats.events_fired << " fired ("
            << stats.churn_flips << " churn flips, "
            << stats.lb_reconfigured << " LB groups reconfigured, "
            << stats.outage_starts << " outages)\n";
  if (args.Has("mda-lite")) {
    const double savings =
        baseline.stats.probes_sent == 0
            ? 0.0
            : 1.0 - static_cast<double>(scenario_probes) /
                        static_cast<double>(baseline.stats.probes_sent);
    std::cout << "mda-lite probe savings vs full: "
              << static_cast<int>(savings * 100.0) << "%\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) return Usage();
  const Args& args = *parsed;
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "measure") return CmdMeasure(args);
  if (args.command == "classify") return CmdClassify(args);
  if (args.command == "traceroute") return CmdTraceroute(args);
  if (args.command == "rdns") return CmdRdns(args);
  if (args.command == "whois") return CmdWhois(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "lookup") return CmdLookup(args);
  if (args.command == "export-snapshot") return CmdExportSnapshot(args);
  if (args.command == "stream-campaign") return CmdStreamCampaign(args);
  if (args.command == "scenario") return CmdScenario(args);
  return Usage();
}
