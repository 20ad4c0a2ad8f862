// Scenario subsystem: the zero-intensity differential gates (an
// installed-but-idle adversity layer must reproduce core::RunPipeline
// bit for bit, at every thread count), batch/stream cross-mode identity
// under full adversity, per-injector unit semantics against MiniNet,
// and the MDA-Lite stopping rule's cost/accuracy contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"
#include "netsim/rng.h"
#include "probing/traceroute.h"
#include "scenario/scenario.h"
#include "scenario/scenario_stream.h"
#include "test_util.h"

namespace hobbit::scenario {
namespace {

core::PipelineConfig Small(std::uint64_t seed) {
  core::PipelineConfig config;
  config.seed = seed;
  config.calibration_blocks = 40;
  config.samples_per_block = 32;
  config.prober.min_cell_trials = 100;
  return config;
}

std::string Serialize(const core::PipelineResult& result) {
  std::ostringstream out;
  core::WriteResults(out, result.results);
  return out.str();
}

// A schedule exercising all the adversity classes at once: reply-side
// loss/rate-limit/loops, false links (per-packet LB flip before setup),
// recurring route churn, and an outage window over the first study /24.
ScenarioSpec Adversity(const netsim::Internet& internet) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.segment = 24;
  spec.artifacts.seed = 99;
  spec.artifacts.p_probe_loss = 0.04;
  spec.artifacts.p_rate_limit = 0.25;
  spec.artifacts.p_loop = 0.06;
  ScenarioEvent lb;
  lb.action = ScenarioAction::kLbReconfigure;
  lb.wave = 0;
  lb.count = 4;
  spec.events.push_back(lb);
  ScenarioEvent churn;
  churn.action = ScenarioAction::kRouteChurn;
  churn.wave = 1;
  churn.repeat = 1;
  churn.count = 3;
  spec.events.push_back(churn);
  ScenarioEvent outage_start;
  outage_start.action = ScenarioAction::kOutageStart;
  outage_start.wave = 1;
  // A block actually probed while the window is dark (waves 1-2): the
  // first block of wave 1, not the front of the sorted study list
  // (that one is already measured in wave 0).
  outage_start.prefix = internet.study_24s[std::min(
      spec.segment, internet.study_24s.size() - 1)];
  spec.events.push_back(outage_start);
  ScenarioEvent outage_end = outage_start;
  outage_end.action = ScenarioAction::kOutageEnd;
  outage_end.wave = 3;
  spec.events.push_back(outage_end);
  return spec;
}

// ------------------------------------------------- MDA-Lite stopping rule

TEST(MdaLite, StrictlyCheaperThanFullMdaAndMatchesFormula) {
  for (int k = 1; k <= 48; ++k) {
    const int lite = probing::MdaLiteProbeCount(k);
    EXPECT_LT(lite, probing::MdaProbeCount(k)) << "k=" << k;
    // Smallest n with (k/(k+1))^n < 0.1 — the published 90 % bound.
    const double ratio =
        static_cast<double>(k) / static_cast<double>(k + 1);
    EXPECT_LT(std::pow(ratio, lite), 0.1) << "k=" << k;
    EXPECT_GE(std::pow(ratio, lite - 1), 0.1) << "k=" << k;
  }
  // Spot-check the published table entries.
  EXPECT_EQ(probing::MdaLiteProbeCount(1), 4);
  EXPECT_EQ(probing::MdaLiteProbeCount(2), 6);
  EXPECT_EQ(probing::MdaLiteProbeCount(16), 38);
}

TEST(MdaLite, SavesProbesWithBoundedClassificationDrift) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(41));
  core::PipelineConfig full = Small(41);
  core::PipelineResult reference = core::RunPipeline(internet, full);

  core::PipelineConfig lite = Small(41);
  lite.prober.mda_lite = true;
  core::PipelineResult cheap = core::RunPipeline(internet, lite);

  ASSERT_EQ(cheap.results.size(), reference.results.size());
  EXPECT_LT(cheap.stats.probes_sent, reference.stats.probes_sent);

  std::size_t agree = 0;
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(cheap.results[i].prefix, reference.results[i].prefix);
    if (cheap.results[i].classification ==
        reference.results[i].classification) {
      ++agree;
    }
  }
  // The relaxed rule may miss interfaces of wide hops, but on a clean
  // world the wholesale classification must remain close to full MDA.
  EXPECT_GE(static_cast<double>(agree),
            0.7 * static_cast<double>(reference.results.size()));
}

// ------------------------------------------- zero-intensity differentials

TEST(ZeroIntensity, EmptySpecReproducesPlainPipeline) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(31));
  const core::PipelineConfig config = Small(31);
  core::PipelineResult plain = core::RunPipeline(internet, config);
  const std::string baseline = Serialize(plain);
  ASSERT_FALSE(baseline.empty());

  for (std::size_t segment : {std::size_t{0}, std::size_t{16}}) {
    ScenarioSpec spec;
    spec.segment = segment;
    ScenarioStats stats;
    core::PipelineResult result =
        RunScenarioPipeline(internet, config, spec, &stats);
    EXPECT_EQ(Serialize(result), baseline) << "segment=" << segment;
    EXPECT_EQ(result.stats.probes_sent, plain.stats.probes_sent);
    EXPECT_EQ(stats.injector.total(), 0u);
    EXPECT_EQ(stats.events_fired, 0u);
    if (segment != 0) {
      EXPECT_GT(stats.waves, 1u);
    }
  }
}

// Satellite gate: every injector present at intensity zero — explicit
// 0.0 reply-side intensities, count-0 mutators, and a zero-width outage
// window — leaves the campaign bit-identical to the plain pipeline.
TEST(ZeroIntensity, EveryIdleInjectorLeavesPipelineBitIdentical) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(33));
  const core::PipelineConfig config = Small(33);
  const core::PipelineResult plain = core::RunPipeline(internet, config);
  const std::string baseline = Serialize(plain);

  std::vector<std::pair<std::string, ScenarioSpec>> specs;
  {
    ScenarioSpec spec;
    spec.artifacts.p_probe_loss = 0.0;
    specs.emplace_back("loss@0", spec);
  }
  {
    ScenarioSpec spec;
    spec.artifacts.p_rate_limit = 0.0;
    specs.emplace_back("ratelimit@0", spec);
  }
  {
    ScenarioSpec spec;
    spec.artifacts.p_loop = 0.0;
    specs.emplace_back("loops@0", spec);
  }
  {
    ScenarioSpec spec;
    spec.segment = 16;
    ScenarioEvent churn;
    churn.action = ScenarioAction::kRouteChurn;
    churn.wave = 1;
    churn.repeat = 1;
    churn.count = 0;  // fires, flips nothing
    spec.events.push_back(churn);
    specs.emplace_back("churn@0", spec);
  }
  {
    ScenarioSpec spec;
    spec.segment = 16;
    ScenarioEvent lb;
    lb.action = ScenarioAction::kLbReconfigure;
    lb.wave = 0;
    lb.count = 0;
    spec.events.push_back(lb);
    // Zero-width outage: start and end fire back to back at the same
    // boundary, so no probe ever sees the overlay populated.
    ScenarioEvent outage_start;
    outage_start.action = ScenarioAction::kOutageStart;
    outage_start.wave = 1;
    outage_start.prefix = internet.study_24s.front();
    spec.events.push_back(outage_start);
    ScenarioEvent outage_end = outage_start;
    outage_end.action = ScenarioAction::kOutageEnd;
    spec.events.push_back(outage_end);
    specs.emplace_back("lb@0+outage@0width", spec);
  }

  for (const auto& [name, spec] : specs) {
    ScenarioStats stats;
    core::PipelineResult result =
        RunScenarioPipeline(internet, config, spec, &stats);
    EXPECT_EQ(Serialize(result), baseline) << name;
    EXPECT_EQ(result.stats.probes_sent, plain.stats.probes_sent) << name;
    EXPECT_EQ(stats.injector.total(), 0u) << name;
    EXPECT_EQ(stats.churn_flips, 0u) << name;
    EXPECT_EQ(stats.lb_reconfigured, 0u) << name;
  }
}

TEST(ZeroIntensity, ByteIdenticalAcrossThreadCounts) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(35));
  // The serial scenario run against the *plain* serial pipeline, then
  // every thread count against that same baseline.
  const core::PipelineResult reference =
      core::RunPipeline(internet, Small(35));
  const std::string baseline = Serialize(reference);
  ASSERT_FALSE(baseline.empty());
  test::ForEachPool(test::ThreadCounts(), [&](common::ThreadPool* pool) {
    core::PipelineConfig config = Small(35);
    config.pool = pool;
    ScenarioSpec spec;
    spec.segment = 16;  // idle waves still cross segment boundaries
    core::PipelineResult result =
        RunScenarioPipeline(internet, config, spec);
    EXPECT_EQ(Serialize(result), baseline);
    EXPECT_EQ(result.stats.probes_sent, reference.stats.probes_sent);
  });
}

// ------------------------------------------------- injectors that do fire

TEST(Injectors, EachArtifactFiresAndPerturbsTheCampaign) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(37));
  const core::PipelineConfig config = Small(37);
  const std::string clean = Serialize(core::RunPipeline(internet, config));

  struct Case {
    const char* name;
    ArtifactConfig artifacts;
    std::uint64_t InjectorCounters::*counter;
  };
  std::vector<Case> cases;
  {
    ArtifactConfig loss;
    loss.p_probe_loss = 0.3;
    cases.push_back({"loss", loss, &InjectorCounters::probe_losses});
    ArtifactConfig limit;
    limit.p_rate_limit = 0.5;
    cases.push_back(
        {"ratelimit", limit, &InjectorCounters::rate_limit_silences});
    ArtifactConfig loops;
    loops.p_loop = 0.3;
    cases.push_back({"loops", loops, &InjectorCounters::loop_rewrites});
  }

  for (const Case& c : cases) {
    ScenarioSpec spec;
    spec.artifacts = c.artifacts;
    ScenarioStats stats;
    core::PipelineResult result =
        RunScenarioPipeline(internet, config, spec, &stats);
    EXPECT_GT(stats.injector.*(c.counter), 0u) << c.name;
    EXPECT_NE(Serialize(result), clean) << c.name;
  }
}

TEST(Injectors, MutatorsSwitchGroupsAndBumpTheEpoch) {
  netsim::Internet internet = netsim::BuildInternet(netsim::TinyConfig(39));
  const std::uint64_t epoch_before = internet.topology.mutation_epoch();
  netsim::Rng rng = netsim::Rng(39).Fork(0x5CE4ULL);
  const std::size_t switched =
      ReconfigureLoadBalancers(internet.topology, rng, 4);
  EXPECT_GT(switched, 0u);
  EXPECT_GT(internet.topology.mutation_epoch(), epoch_before);

  const std::uint64_t epoch_mid = internet.topology.mutation_epoch();
  const std::size_t flipped = InjectRouteChurn(internet.topology, rng, 4);
  EXPECT_GT(flipped, 0u);
  EXPECT_GT(internet.topology.mutation_epoch(), epoch_mid);
}

// --------------------------------------------- injector unit semantics

TEST(ArtifactInjector, TotalLossTimesOutEveryReply) {
  test::MiniNet net = test::BuildMiniNet();
  netsim::RouteMemo memo;
  ArtifactConfig config;
  config.p_probe_loss = 1.0;
  ArtifactInjector injector(config);
  net.simulator->SetReplyArtifacts(&injector);

  netsim::ProbeSpec probe;
  probe.destination = test::Addr("20.0.1.9");
  for (int ttl : {1, 3, 64}) {
    probe.ttl = ttl;
    netsim::ProbeReply reply = net.simulator->Send(probe, memo);
    EXPECT_EQ(reply.kind, netsim::ReplyKind::kTimeout) << "ttl=" << ttl;
  }
  EXPECT_EQ(injector.counters().probe_losses, 3u);
  net.simulator->SetReplyArtifacts(nullptr);
}

TEST(ArtifactInjector, RateLimitSilencesRoutersButNotHosts) {
  test::MiniNet net = test::BuildMiniNet();
  netsim::RouteMemo memo;
  ArtifactConfig config;
  config.p_rate_limit = 1.0;
  ArtifactInjector injector(config);
  net.simulator->SetReplyArtifacts(&injector);

  netsim::ProbeSpec probe;
  probe.destination = test::Addr("20.0.1.9");
  probe.ttl = 3;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kTimeout);
  EXPECT_GT(injector.counters().rate_limit_silences, 0u);
  // Echo replies are not TTL-exceeded — the rate limiter leaves them be.
  probe.ttl = 64;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kEchoReply);
  net.simulator->SetReplyArtifacts(nullptr);
}

TEST(ArtifactInjector, LoopCyclesSyntheticRoutersPastTheOnset) {
  test::MiniNet net = test::BuildMiniNet();
  netsim::RouteMemo memo;
  ArtifactConfig config;
  config.p_loop = 1.0;
  config.loop_onset_min = 3;
  config.loop_onset_max = 3;
  ArtifactInjector injector(config);
  net.simulator->SetReplyArtifacts(&injector);

  const netsim::Ipv4Address loop_base = test::Addr("198.18.0.0");
  auto in_loop_space = [&](netsim::Ipv4Address address) {
    return (address.value() & 0xFFFE0000u) == loop_base.value();
  };

  netsim::ProbeSpec probe;
  probe.destination = test::Addr("20.0.1.9");
  // Below the onset the true path answers.
  probe.ttl = 2;
  netsim::ProbeReply below = net.simulator->Send(probe, memo);
  EXPECT_EQ(below.kind, netsim::ReplyKind::kTtlExceeded);
  EXPECT_FALSE(in_loop_space(below.responder));
  // From the onset on, synthetic loop routers answer and the cycle
  // repeats with period 2 or 3; the destination is unreachable.
  probe.ttl = 3;
  netsim::ProbeReply at_onset = net.simulator->Send(probe, memo);
  EXPECT_EQ(at_onset.kind, netsim::ReplyKind::kTtlExceeded);
  EXPECT_TRUE(in_loop_space(at_onset.responder));
  bool cycled = false;
  for (int period : {2, 3}) {
    probe.ttl = 3 + period;
    if (net.simulator->Send(probe, memo).responder == at_onset.responder) {
      cycled = true;
    }
  }
  EXPECT_TRUE(cycled);
  probe.ttl = 64;
  EXPECT_EQ(net.simulator->Send(probe, memo).kind,
            netsim::ReplyKind::kTtlExceeded);
  EXPECT_GT(injector.counters().loop_rewrites, 0u);
  net.simulator->SetReplyArtifacts(nullptr);
}

TEST(ArtifactInjector, RewriteIsDeterministicPerProbe) {
  test::MiniNet net = test::BuildMiniNet();
  netsim::RouteMemo memo;
  ArtifactConfig config;
  config.p_probe_loss = 0.5;
  config.p_rate_limit = 0.5;
  config.p_loop = 0.5;
  ArtifactInjector injector(config);
  net.simulator->SetReplyArtifacts(&injector);

  for (std::uint32_t host = 1; host < 32; ++host) {
    netsim::ProbeSpec probe;
    probe.destination =
        netsim::Ipv4Address(test::Addr("20.0.2.0").value() + host);
    probe.ttl = static_cast<int>(1 + host % 8);
    probe.flow_id = static_cast<std::uint16_t>(host);
    const netsim::ProbeReply first = net.simulator->Send(probe, memo);
    const netsim::ProbeReply second = net.simulator->Send(probe, memo);
    EXPECT_EQ(first.kind, second.kind);
    EXPECT_EQ(first.responder, second.responder);
    EXPECT_EQ(first.reply_ttl, second.reply_ttl);
  }
  net.simulator->SetReplyArtifacts(nullptr);
}

// -------------------------------------------------- cross-mode identity

TEST(Scenario, StreamMatchesBatchUnderFullAdversity) {
  netsim::Internet batch_world =
      netsim::BuildInternet(netsim::TinyConfig(29));
  const ScenarioSpec spec = Adversity(batch_world);
  core::PipelineConfig config = Small(29);
  ScenarioStats batch_stats;
  core::PipelineResult batch =
      RunScenarioPipeline(batch_world, config, spec, &batch_stats);

  netsim::Internet stream_world =
      netsim::BuildInternet(netsim::TinyConfig(29));
  common::ThreadPool pool(2);
  stream::StreamConfig stream_config;
  stream_config.campaign = config;
  stream_config.campaign.pool = &pool;
  stream_config.window = 8;
  ScenarioStats stream_stats;
  stream::StreamResult stream =
      RunScenarioStream(stream_world, stream_config, spec, &stream_stats);

  // Every adversity class actually engaged, in both modes.
  for (const ScenarioStats& stats : {batch_stats, stream_stats}) {
    EXPECT_GT(stats.injector.probe_losses, 0u);
    EXPECT_GT(stats.injector.rate_limit_silences, 0u);
    EXPECT_GT(stats.injector.loop_rewrites, 0u);
    EXPECT_GT(stats.lb_reconfigured, 0u);
    EXPECT_GT(stats.churn_flips, 0u);
    EXPECT_EQ(stats.outage_starts, 1u);
    EXPECT_EQ(stats.outage_ends, 1u);
    EXPECT_GT(stats.events_fired, 2u);
  }

  // And the two runners tell the same story, bit for bit.
  ASSERT_EQ(stream.records.size(), batch.results.size());
  std::map<std::uint32_t, const core::BlockResult*> by_key;
  for (const core::BlockResult& r : batch.results) {
    by_key[r.prefix.base().value()] = &r;
  }
  for (const stream::StreamRecord& record : stream.records) {
    auto pos = by_key.find(record.prefix.base().value());
    ASSERT_NE(pos, by_key.end()) << record.prefix.ToString();
    EXPECT_EQ(record.classification, pos->second->classification)
        << record.prefix.ToString();
    EXPECT_EQ(record.probes_used, pos->second->probes_used);
  }
  EXPECT_EQ(stream.classification_counts, batch.classification_counts());
  EXPECT_EQ(stream.stats.setup.probes_sent + stream.stats.probes_sent,
            batch.stats.probes_sent);
  EXPECT_EQ(stream_stats.injector.total(), batch_stats.injector.total());
}

TEST(Scenario, ThreadCountInvariantUnderFullAdversity) {
  // The serial (null-pool) run is the baseline for every pool size.
  std::string baseline;
  std::uint64_t baseline_probes = 0;
  test::ForEachPool(test::ThreadCounts(), [&](common::ThreadPool* pool) {
    // Fresh world per run: the schedule mutates the topology.
    netsim::Internet internet =
        netsim::BuildInternet(netsim::TinyConfig(43));
    core::PipelineConfig config = Small(43);
    config.pool = pool;
    core::PipelineResult result =
        RunScenarioPipeline(internet, config, Adversity(internet), nullptr);
    const std::string serialized = Serialize(result);
    if (pool == nullptr) {
      baseline = serialized;
      baseline_probes = result.stats.probes_sent;
      ASSERT_FALSE(baseline.empty());
      return;
    }
    EXPECT_EQ(serialized, baseline);
    EXPECT_EQ(result.stats.probes_sent, baseline_probes);
  });
}

}  // namespace
}  // namespace hobbit::scenario
