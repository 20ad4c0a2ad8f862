#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>

#include "common/parallel.h"

namespace hobbit::scenario {
namespace {

constexpr std::uint64_t kEventRngSalt = 0x5CE4A410ULL;

bool FiresAt(const ScenarioEvent& event, std::size_t wave) {
  if (event.repeat == 0) return event.wave == wave;
  return wave >= event.wave && (wave - event.wave) % event.repeat == 0;
}

}  // namespace

ScenarioDriver::ScenarioDriver(netsim::Internet& internet,
                               const ScenarioSpec& spec)
    : internet_(internet), spec_(spec), injector_(spec.artifacts) {
  netsim::Simulator* simulator = internet_.simulator.get();
  simulator->SetReplyArtifacts(&injector_);
  simulator->SetOutageOverlay(&overlay_);
}

ScenarioDriver::~ScenarioDriver() {
  netsim::Simulator* simulator = internet_.simulator.get();
  simulator->SetReplyArtifacts(nullptr);
  simulator->SetOutageOverlay(nullptr);
}

void ScenarioDriver::RebuildOverlay() {
  overlay_.Clear();
  for (const netsim::Prefix& prefix : active_outages_) overlay_.Fail(prefix);
}

void ScenarioDriver::ApplyWave(std::size_t wave) {
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    const ScenarioEvent& event = spec_.events[i];
    if (!FiresAt(event, wave)) continue;
    // Forked per (seed, wave, event index): which events fire at other
    // waves cannot shift this one's draws.
    netsim::Rng rng = netsim::Rng(spec_.seed)
                          .Fork(netsim::StableHash({kEventRngSalt, wave, i}));
    switch (event.action) {
      case ScenarioAction::kRouteChurn:
        stats_.churn_flips +=
            InjectRouteChurn(internet_.topology, rng, event.count);
        break;
      case ScenarioAction::kLbReconfigure:
        stats_.lb_reconfigured += ReconfigureLoadBalancers(
            internet_.topology, rng, event.count, event.policy);
        break;
      case ScenarioAction::kOutageStart:
        active_outages_.push_back(event.prefix);
        RebuildOverlay();
        ++stats_.outage_starts;
        break;
      case ScenarioAction::kOutageEnd: {
        auto pos = std::find_if(
            active_outages_.begin(), active_outages_.end(),
            [&](const netsim::Prefix& p) {
              return p.base() == event.prefix.base() &&
                     p.length() == event.prefix.length();
            });
        if (pos != active_outages_.end()) active_outages_.erase(pos);
        RebuildOverlay();
        ++stats_.outage_ends;
        break;
      }
    }
    ++stats_.events_fired;
  }
}

ScenarioStats ScenarioDriver::stats() const {
  ScenarioStats stats = stats_;
  stats.injector = injector_.counters();
  return stats;
}

core::PipelineResult RunScenarioPipeline(netsim::Internet& internet,
                                         const core::PipelineConfig& config,
                                         const ScenarioSpec& spec,
                                         ScenarioStats* stats_out) {
  const netsim::Simulator* simulator = internet.simulator.get();

  ScenarioDriver driver(internet, spec);
  // Wave 0 before any probing: the snapshot and calibration stages see
  // the already-adverse world, in both this and the streaming runner.
  driver.ApplyWave(0);

  core::PipelineResult result;
  {
    core::CampaignSetup setup =
        core::PrepareCampaign(internet, config, simulator);
    result.study_blocks = std::move(setup.study_blocks);
    result.calibration = std::move(setup.calibration);
    result.table = std::move(setup.table);
    result.stats = setup.stats;
  }

  // The main measurement, wave by wave — the same loop shape (and the
  // same boundary indices 1, 2, ...) as stream::RunStreamCampaign, and
  // the same per-index MeasurementRng forks as core::RunPipeline, so
  // all three agree whenever they run the same schedule.
  const auto measurement_start = std::chrono::steady_clock::now();
  {
    const std::size_t total = result.study_blocks.size();
    result.results.resize(total);
    const std::size_t segment =
        spec.segment == 0 ? (total == 0 ? 1 : total) : spec.segment;
    common::PerShard<std::uint64_t> probes(common::ThreadCount(config.pool));
    std::size_t done = 0;
    std::size_t segment_index = 0;
    while (done < total) {
      if (segment_index > 0) driver.ApplyWave(segment_index);
      const std::size_t count = std::min(segment, total - done);
      const std::size_t base = done;
      common::ForEachChunk(config.pool, count, 1,
                           [&](common::ChunkRange chunk) {
        core::BlockProber prober(simulator, &result.table, config.prober);
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const std::size_t index = base + i;
          result.results[index] = prober.ProbeBlock(
              result.study_blocks[index],
              core::MeasurementRng(config.seed, index));
        }
        *probes[chunk.shard] += prober.probes_sent();
      });
      done += count;
      ++segment_index;
      ++driver.mutable_stats()->waves;
    }
    result.stats.probes_sent += common::SumShards(probes);
  }
  result.stats.measurement_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    measurement_start)
          .count();
  if (stats_out != nullptr) *stats_out = driver.stats();
  return result;
}

}  // namespace hobbit::scenario
