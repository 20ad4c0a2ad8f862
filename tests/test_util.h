// test_util.h — shared fixtures: a small hand-wired topology with known
// ground truth, used by the simulator / probing / prober tests, and the
// pool sweep (null pool, then each thread count) of the determinism
// tests.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "netsim/artifacts.h"
#include "netsim/host_model.h"
#include "netsim/internet.h"
#include "netsim/ipv4.h"
#include "netsim/rtt_model.h"
#include "netsim/simulator.h"
#include "netsim/topology.h"
#include "probing/zmap.h"

namespace hobbit::test {

/// The thread counts the determinism tests sweep: the smallest pool, a
/// prime that never divides the work evenly, and the machine's own width.
inline std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 7};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1) counts.push_back(static_cast<int>(hw));
  return counts;
}

/// Calls `run(pool)` with a null pool — every stage then runs serially on
/// the calling thread — and then once per entry of `counts` with a fresh
/// pool of that many threads, each call under a SCOPED_TRACE naming it.
template <typename Run>
void ForEachPool(const std::vector<int>& counts, Run&& run) {
  {
    SCOPED_TRACE("pool=null");
    run(static_cast<common::ThreadPool*>(nullptr));
  }
  for (int threads : counts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    common::ThreadPool pool(threads);
    run(&pool);
  }
}

inline netsim::Ipv4Address Addr(const char* text) {
  auto a = netsim::Ipv4Address::Parse(text);
  return a ? *a : netsim::Ipv4Address(0);
}

inline netsim::Prefix Pfx(const char* text) {
  auto p = netsim::Prefix::Parse(text);
  return p ? *p : netsim::Prefix();
}

/// A scan result for the /24 `prefix` with exactly `octets` active.
inline probing::ZmapBlock ZmapBlockOf(const char* prefix,
                                      std::initializer_list<int> octets) {
  probing::ZmapBlock block;
  block.prefix = Pfx(prefix);
  for (int octet : octets) block.SetActive(static_cast<std::uint8_t>(octet));
  return block;
}

/// A scan result for the /24 `prefix` with every address active.
inline probing::ZmapBlock FullBlock(const char* prefix) {
  probing::ZmapBlock block;
  block.prefix = Pfx(prefix);
  block.active.fill(~std::uint64_t{0});
  return block;
}

/// An independent count of Simulator::Send calls: a reply-artifact hook
/// that leaves every reply untouched and only counts it.  Send applies
/// the hook exactly once per probe, so the count sees every packet
/// without changing any.  Installs itself with SetReplyArtifacts for its
/// lifetime; safe to share across measurement threads.
class SendCounter : public netsim::ReplyArtifacts {
 public:
  explicit SendCounter(netsim::Simulator& simulator) : simulator_(simulator) {
    simulator_.SetReplyArtifacts(this);
  }
  ~SendCounter() override { simulator_.SetReplyArtifacts(nullptr); }
  SendCounter(const SendCounter&) = delete;
  SendCounter& operator=(const SendCounter&) = delete;

  void Rewrite(const netsim::ProbeSpec&, const netsim::ArtifactContext&,
               netsim::ProbeReply&) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  netsim::Simulator& simulator_;
  mutable std::atomic<std::uint64_t> count_{0};
};

/// A deterministic mini Internet:
///
///   src -> r1 -> {m1, m2} (per-flow) -> r2 -> agg -> gateways
///
///   20.0.1.0/24  single gateway gw1                  (homogeneous)
///   20.0.2.0/24  per-destination over {gw1, gw2}     (homogeneous)
///   20.0.3.0/24  single SILENT gateway gw_silent     (unresponsive)
///   20.0.4.0/24  gw1, with 20.0.4.64/26 carved to gw2 (heterogeneous,
///                inclusive route entries)
///   20.0.5.0/24  split {/25 -> gw3, /25 -> gw4}       (heterogeneous,
///                aligned-disjoint)
///
/// All hosts exist and answer (occupancy and availability 1.0) unless the
/// caller passes a different HostModelConfig.
struct MiniNet {
  netsim::Topology topology;
  std::unique_ptr<netsim::Simulator> simulator;

  netsim::RouterId src, r1, m1, m2, r2, agg;
  netsim::RouterId gw1, gw2, gw_silent, gw3, gw4;

  // Destination hop distance: src r1 (m1|m2) r2 agg gw = 6 routers, so an
  // echo reaches the host at hop 7.
  static constexpr int kHostHop = 7;
};

inline MiniNet BuildMiniNet(netsim::HostModelConfig host_config = [] {
  netsim::HostModelConfig c;
  c.snapshot_availability = 1.0;
  c.probe_availability = 1.0;
  return c;
}()) {
  using namespace netsim;
  MiniNet net;
  Topology& t = net.topology;

  auto router = [&t](const char* address, double respond = 1.0) {
    Router r;
    r.reply_address = Addr(address);
    r.response.respond_probability = respond;
    return t.AddRouter(std::move(r));
  };
  net.src = router("10.0.0.1");
  net.r1 = router("10.0.0.2");
  net.m1 = router("10.0.0.3");
  net.m2 = router("10.0.0.4");
  net.r2 = router("10.0.0.5");
  net.agg = router("10.0.0.6");
  net.gw1 = router("10.0.0.11");
  net.gw2 = router("10.0.0.12");
  net.gw_silent = router("10.0.0.13", 0.0);
  net.gw3 = router("10.0.0.14");
  net.gw4 = router("10.0.0.15");

  const Prefix any = Pfx("0.0.0.0/0");
  t.router(net.src).fib.AddSingle(any, net.r1);
  t.router(net.r1).fib.Add(any, {{net.m1, net.m2}, LbPolicy::kPerFlow});
  t.router(net.m1).fib.AddSingle(any, net.r2);
  t.router(net.m2).fib.AddSingle(any, net.r2);
  t.router(net.r2).fib.AddSingle(any, net.agg);

  auto& agg_fib = t.router(net.agg).fib;
  agg_fib.Add(Pfx("20.0.1.0/24"), {{net.gw1}, LbPolicy::kPerFlow});
  agg_fib.Add(Pfx("20.0.2.0/24"),
              {{net.gw1, net.gw2}, LbPolicy::kPerDestination});
  agg_fib.Add(Pfx("20.0.3.0/24"), {{net.gw_silent}, LbPolicy::kPerFlow});
  agg_fib.Add(Pfx("20.0.4.0/24"), {{net.gw1}, LbPolicy::kPerFlow});
  agg_fib.Add(Pfx("20.0.4.64/26"), {{net.gw2}, LbPolicy::kPerFlow});
  agg_fib.Add(Pfx("20.0.5.0/25"), {{net.gw3}, LbPolicy::kPerFlow});
  agg_fib.Add(Pfx("20.0.5.128/25"), {{net.gw4}, LbPolicy::kPerFlow});

  auto subnet = [&t](const char* prefix, std::vector<RouterId> gws) {
    Subnet s;
    s.prefix = Pfx(prefix);
    s.gateways = std::move(gws);
    s.occupancy = 1.0;
    s.base_rtt_ms = 10.0;
    t.AddSubnet(std::move(s));
  };
  subnet("20.0.1.0/24", {net.gw1});
  subnet("20.0.2.0/24", {net.gw1, net.gw2});
  subnet("20.0.3.0/24", {net.gw_silent});
  // 20.0.4.0/24 minus the carved /26:
  subnet("20.0.4.128/25", {net.gw1});
  subnet("20.0.4.0/26", {net.gw1});
  subnet("20.0.4.64/26", {net.gw2});
  subnet("20.0.5.0/25", {net.gw3});
  subnet("20.0.5.128/25", {net.gw4});
  t.Seal();

  SimulatorConfig sim;
  sim.seed = 7;
  sim.p_reverse_asymmetry = 0.0;  // deterministic TTL inference in tests
  host_config.seed = 11;
  RttModelConfig rtt;
  rtt.seed = 13;
  net.simulator = std::make_unique<Simulator>(
      &net.topology, net.src, Addr("10.0.0.1"), HostModel(host_config),
      RttModel(rtt), sim);
  return net;
}

}  // namespace hobbit::test
