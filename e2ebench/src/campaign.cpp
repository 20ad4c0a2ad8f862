#include "campaign.h"

#include <algorithm>

#include "serve/lookup.h"
#include "util.h"

namespace e2ebench {

namespace {

using hobbit::cluster::AggregateBlock;
using hobbit::netsim::Prefix;

/// The output checks: classification counts sum to the study size, the
/// final blocks partition the homogeneous /24s, and every homogeneous /24
/// looks up in the loaded snapshot to the block that holds it.
std::string CheckChain(const ChainResult& chain) {
  const auto& pipeline = chain.pipeline;
  std::size_t counted = 0;
  for (std::size_t c : pipeline.classification_counts()) counted += c;
  if (counted != pipeline.stats.study_24s ||
      pipeline.results.size() != pipeline.stats.study_24s) {
    return "classification counts do not sum to study_24s";
  }
  std::vector<std::uint32_t> homogeneous;
  for (const auto* block : pipeline.HomogeneousBlocks()) {
    homogeneous.push_back(block->prefix.base().value());
  }
  std::sort(homogeneous.begin(), homogeneous.end());
  std::vector<std::uint32_t> members;
  for (const AggregateBlock& block : chain.final_blocks) {
    for (const Prefix& p : block.member_24s) members.push_back(p.base().value());
  }
  std::sort(members.begin(), members.end());
  if (members != homogeneous) {
    return "final blocks do not partition the homogeneous /24s";
  }
  if (!chain.snapshot) return "snapshot did not load";
  const hobbit::serve::LookupEngine engine(*chain.snapshot);
  for (std::uint32_t b = 0; b < chain.final_blocks.size(); ++b) {
    const AggregateBlock& block = chain.final_blocks[b];
    if (chain.snapshot->BlockMemberCount(b) != block.member_24s.size()) {
      return "snapshot block " + std::to_string(b) + " has the wrong size";
    }
    for (const Prefix& p : block.member_24s) {
      const hobbit::serve::LookupResult hit = engine.Lookup(p);
      if (!hit.found || hit.block != b) {
        return p.ToString() + " does not look up to block " + std::to_string(b);
      }
    }
  }
  return "";
}

}  // namespace

ChainResult RunChain(const hobbit::netsim::Internet& internet,
                     std::uint64_t seed, double scale,
                     hobbit::common::ThreadPool* pool, Tracer* tracer,
                     bool corrupt_block) {
  namespace cluster = hobbit::cluster;
  ChainResult chain;
  const std::int64_t start = NowNs();
  std::optional<Tracer::Scope> chain_span(std::in_place, tracer, "campaign.chain");

  hobbit::core::PipelineConfig config;
  config.seed = seed;
  config.pool = pool;
  config.calibration_blocks = std::max(200, static_cast<int>(1200 * scale));
  config.samples_per_block = 64;
  {
    Tracer::Scope span(tracer, "hobbit.RunPipeline");
    const double cpu0 = ProcessCpuSeconds();
    const std::int64_t t0 = NowNs();
    chain.pipeline = hobbit::core::RunPipeline(internet, config);
    chain.pipeline_wall_s = SecondsSince(t0);
    chain.pipeline_cpu_s = ProcessCpuSeconds() - cpu0;
  }
  std::vector<const hobbit::core::BlockResult*> homogeneous;
  {
    Tracer::Scope span(tracer, "hobbit.HomogeneousBlocks");
    homogeneous = chain.pipeline.HomogeneousBlocks();
  }
  std::vector<AggregateBlock> aggregates;
  {
    Tracer::Scope span(tracer, "cluster.AggregateIdentical");
    aggregates = cluster::AggregateIdentical(homogeneous);
  }
  if (tracer->enabled()) {
    Tracer::Scope span(tracer, "cluster.BuildSimilarityGraph");
    const cluster::Graph graph = cluster::BuildSimilarityGraph(aggregates, pool);
    if (graph.vertex_count != aggregates.size()) chain.error = "graph size mismatch";
  }
  cluster::MclAggregationResult mcl;
  {
    Tracer::Scope span(tracer, "cluster.RunMclAggregation");
    cluster::MclAggregationParams params;
    params.mcl.pool = pool;
    mcl = cluster::RunMclAggregation(aggregates, params);
  }
  {
    Tracer::Scope span(tracer, "cluster.ValidateClusters");
    cluster::ValidationParams params;
    params.pool = pool;
    const double cpu0 = ProcessCpuSeconds();
    const std::int64_t t0 = NowNs();
    cluster::ValidateClusters(internet, chain.pipeline.study_blocks, aggregates,
                              mcl, params);
    chain.validate_wall_s = SecondsSince(t0);
    chain.validate_cpu_s = ProcessCpuSeconds() - cpu0;
  }
  {
    Tracer::Scope span(tracer, "cluster.MergeValidatedClusters");
    chain.final_blocks = cluster::MergeValidatedClusters(aggregates, mcl);
  }
  if (corrupt_block && chain.final_blocks.size() >= 2) {
    chain.final_blocks[1].member_24s.push_back(
        chain.final_blocks[0].member_24s.back());
  }
  std::vector<std::byte> bytes;
  {
    Tracer::Scope span(tracer, "serve.CompileSnapshotV2");
    bytes = hobbit::serve::CompileSnapshotV2(
        chain.final_blocks, hobbit::serve::ClassifiedFrom(chain.pipeline.results),
        seed);
  }
  {
    Tracer::Scope span(tracer, "serve.Snapshot::FromBuffer");
    std::string error;
    chain.snapshot = hobbit::serve::Snapshot::FromBuffer(std::move(bytes), &error);
    if (!chain.snapshot) chain.error = "snapshot load failed: " + error;
  }
  chain_span.reset();
  chain.wall_s = SecondsSince(start);

  chain.aggregates = aggregates.size();
  chain.clusters = mcl.clusters.size();
  for (const cluster::ClusterInfo& info : mcl.clusters) {
    chain.validated += info.validated_homogeneous ? 1 : 0;
  }
  if (chain.error.empty()) chain.error = CheckChain(chain);
  return chain;
}

}  // namespace e2ebench
