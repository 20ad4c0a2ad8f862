#include "netsim/host_model.h"

#include <gtest/gtest.h>

#include "netsim/rng.h"

#include "test_util.h"

namespace hobbit::netsim {
namespace {

using test::Addr;
using test::Pfx;

Subnet MakeSubnet(double occupancy) {
  Subnet s;
  s.prefix = Pfx("20.0.0.0/24");
  s.occupancy = occupancy;
  return s;
}

TEST(HostModel, DeterministicPerAddress) {
  HostModelConfig config;
  config.seed = 5;
  HostModel a(config), b(config);
  Subnet subnet = MakeSubnet(0.5);
  for (std::uint32_t i = 0; i < 256; ++i) {
    Ipv4Address address(Addr("20.0.0.0").value() + i);
    EXPECT_EQ(a.Exists(address, subnet), b.Exists(address, subnet));
    EXPECT_EQ(a.ActiveInSnapshot(address, subnet),
              b.ActiveInSnapshot(address, subnet));
    EXPECT_EQ(a.OsOf(address), b.OsOf(address));
  }
}

TEST(HostModel, OccupancyScalesExistence) {
  HostModelConfig config;
  config.seed = 5;
  HostModel model(config);
  auto count_existing = [&](double occupancy) {
    Subnet subnet = MakeSubnet(occupancy);
    int n = 0;
    // Many /24s for statistical stability.
    for (std::uint32_t block = 0; block < 100; ++block) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        Ipv4Address address((20u << 24) + (block << 8) + i);
        n += model.Exists(address, subnet);
      }
    }
    return n;
  };
  int at_10 = count_existing(0.10);
  int at_50 = count_existing(0.50);
  EXPECT_NEAR(at_10, 2560, 300);
  EXPECT_NEAR(at_50, 12800, 700);
}

TEST(HostModel, ActiveImpliesExists) {
  HostModelConfig config;
  config.seed = 9;
  HostModel model(config);
  Subnet subnet = MakeSubnet(0.3);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    Ipv4Address address((21u << 24) + i);
    if (model.ActiveInSnapshot(address, subnet) ||
        model.ActiveAtProbeTime(address, subnet)) {
      EXPECT_TRUE(model.Exists(address, subnet));
    }
  }
}

TEST(HostModel, SnapshotAndProbeEpochsDiffer) {
  HostModelConfig config;
  config.seed = 10;
  config.snapshot_availability = 0.9;
  config.probe_availability = 0.9;
  HostModel model(config);
  Subnet subnet = MakeSubnet(1.0);
  int snapshot_only = 0, probe_only = 0;
  for (std::uint32_t i = 0; i < 8192; ++i) {
    Ipv4Address address((22u << 24) + i);
    bool snap = model.ActiveInSnapshot(address, subnet);
    bool probe = model.ActiveAtProbeTime(address, subnet);
    snapshot_only += snap && !probe;
    probe_only += probe && !snap;
  }
  // Independent availability draws: ~9% churn each way.
  EXPECT_GT(snapshot_only, 300);
  EXPECT_GT(probe_only, 300);
}

TEST(HostModel, OsMixRoughlyMatchesConfig) {
  HostModelConfig config;
  config.seed = 3;
  HostModel model(config);
  int counts[4] = {};
  constexpr int kHosts = 50000;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    ++counts[static_cast<int>(model.OsOf(Ipv4Address(i)))];
  }
  EXPECT_NEAR(counts[0] / double(kHosts), config.p_unix, 0.02);
  EXPECT_NEAR(counts[1] / double(kHosts), config.p_windows, 0.02);
  EXPECT_NEAR(counts[2] / double(kHosts), config.p_network, 0.01);
}

TEST(HostModel, DefaultTtlValues) {
  EXPECT_EQ(DefaultTtlOf(TtlFamily::kUnix64), 64);
  EXPECT_EQ(DefaultTtlOf(TtlFamily::kWindows128), 128);
  EXPECT_EQ(DefaultTtlOf(TtlFamily::kNetwork255), 255);
  EXPECT_EQ(DefaultTtlOf(TtlFamily::kLegacy32), 32);
}

// The host draws in their unfolded form, one StableHash({seed, address,
// salt}) per draw and the churn draw at every epoch: the reference the
// folded HostModel must reproduce bit for bit.
class UnfoldedHostModel {
 public:
  explicit UnfoldedHostModel(HostModelConfig config) : config_(config) {}

  bool Exists(Ipv4Address address, const Subnet& subnet) const {
    const bool churns = Draw(address, 0xC4324ULL) < config_.p_address_churn;
    const std::uint64_t salt =
        0xE15ULL + (churns ? config_.epoch : 0u) * 0x9E37ULL;
    return Draw(address, salt) < subnet.occupancy;
  }
  bool ActiveInSnapshot(Ipv4Address address, const Subnet& subnet) const {
    return Exists(address, subnet) &&
           Draw(address, 0x54AFULL + config_.epoch * 0x51DULL) <
               config_.snapshot_availability;
  }
  bool ActiveAtProbeTime(Ipv4Address address, const Subnet& subnet) const {
    return Exists(address, subnet) &&
           Draw(address, 0x9206EULL + config_.epoch * 0x51DULL) <
               config_.probe_availability;
  }
  TtlFamily OsOf(Ipv4Address address) const {
    double u = Draw(address, 0x05F4ULL);
    if (u < config_.p_unix) return TtlFamily::kUnix64;
    u -= config_.p_unix;
    if (u < config_.p_windows) return TtlFamily::kWindows128;
    u -= config_.p_windows;
    if (u < config_.p_network) return TtlFamily::kNetwork255;
    return TtlFamily::kLegacy32;
  }

 private:
  double Draw(Ipv4Address address, std::uint64_t salt) const {
    return HashToUnit(StableHash({config_.seed, address.value(), salt}));
  }

  HostModelConfig config_;
};

TEST(HostModel, FoldedDrawsMatchStableHashOracle) {
  // Epoch 0 pins the skipped churn draw; occupancies 0 and 1 pin the
  // existence draw's edges.
  Rng rng(0xF01DULL);
  for (std::uint32_t epoch : {0u, 1u, 5u}) {
    for (double occupancy : {0.0, 0.3, 1.0}) {
      SCOPED_TRACE(testing::Message() << "epoch=" << epoch
                                      << " occupancy=" << occupancy);
      HostModelConfig config;
      config.seed = rng.Next();
      config.epoch = epoch;
      const HostModel model(config);
      const UnfoldedHostModel oracle(config);
      const Subnet subnet = MakeSubnet(occupancy);
      int mismatches = 0, exists = 0, snapshot = 0, probe = 0;
      for (int i = 0; i < 100000; ++i) {
        const Ipv4Address address(static_cast<std::uint32_t>(rng.Next()));
        const bool e = model.Exists(address, subnet);
        const bool s = model.ActiveInSnapshot(address, subnet);
        const bool p = model.ActiveAtProbeTime(address, subnet);
        mismatches += e != oracle.Exists(address, subnet);
        mismatches += s != oracle.ActiveInSnapshot(address, subnet);
        mismatches += p != oracle.ActiveAtProbeTime(address, subnet);
        mismatches += model.OsOf(address) != oracle.OsOf(address);
        exists += e;
        snapshot += s;
        probe += p;
      }
      EXPECT_EQ(mismatches, 0);
      // The comparison is not vacuous: every outcome occurs where it can.
      if (occupancy > 0.0) {
        EXPECT_GT(snapshot, 0);
        EXPECT_GT(probe, 0);
        if (occupancy < 1.0) {
          EXPECT_LT(exists, 100000);
        }
      } else {
        EXPECT_EQ(exists, 0);
      }
    }
  }
}

}  // namespace
}  // namespace hobbit::netsim
