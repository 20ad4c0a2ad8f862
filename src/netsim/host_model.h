// host_model.h — per-address host behaviour: existence, liveness and
// operating-system defaults.
//
// Everything is a pure function of (seed, address) via stable hashing, so
// the ZMap scanner, the Hobbit prober and tests all see one consistent
// world without storing per-address state for millions of addresses.
// The snapshot scan makes these queries for every address of every /24,
// so each query folds the address into the hash once and every draw
// after that is a single mix (DESIGN.md §16).
//
// Liveness is two-stage to reproduce the paper's §3.3 caveat that some
// addresses active in the ZMap snapshot were gone by probe time: an address
// has a *base* existence draw, then independent availability draws for the
// snapshot epoch and the probing epoch.
#pragma once

#include <cstdint>

#include "netsim/ipv4.h"
#include "netsim/rng.h"
#include "netsim/topology.h"

namespace hobbit::netsim {

/// Default initial TTL families observed in the wild (paper §3.4 cites 64,
/// 128 and 255 as commonplace; 32 models legacy/embedded gear that breaks
/// the inference and exercises Hobbit's first_ttl halving fallback).
enum class TtlFamily : std::uint8_t {
  kUnix64,       ///< Linux/macOS style
  kWindows128,   ///< Windows style
  kNetwork255,   ///< routers, some embedded stacks
  kLegacy32,     ///< non-standard; defeats the TTL heuristic
};

constexpr int DefaultTtlOf(TtlFamily family) {
  switch (family) {
    case TtlFamily::kUnix64: return 64;
    case TtlFamily::kWindows128: return 128;
    case TtlFamily::kNetwork255: return 255;
    case TtlFamily::kLegacy32: return 32;
  }
  return 64;
}

/// Tunables for the host population.
struct HostModelConfig {
  std::uint64_t seed = 1;
  /// Measurement epoch.  Availability draws are re-rolled per epoch, and
  /// a churn fraction of addresses changes occupants entirely (DHCP
  /// renumbering) — the substrate for longitudinal analyses (the paper's
  /// future work).
  std::uint32_t epoch = 0;
  /// Fraction of addresses whose existence re-rolls every epoch.
  double p_address_churn = 0.12;
  /// P(host answers pings at snapshot time | host exists).
  double snapshot_availability = 0.92;
  /// P(host answers pings at probe time | host exists).  Lower than the
  /// snapshot's: the paper notes availability varies between the snapshot
  /// day and the measurement (§2.1 footnote, §3.3).
  double probe_availability = 0.76;
  /// OS mix.
  double p_unix = 0.55;
  double p_windows = 0.35;
  double p_network = 0.08;  // remainder is kLegacy32
};

/// Deterministic host-population oracle.
///
/// Every draw is `HashToUnit(StableHash({seed, address, salt}))`.  Because
/// StableHash folds left to right, the model folds `{seed}` once at
/// construction and each query folds `{address}` once; a draw then costs
/// a single `Mix64(address_state ^ salt)` (see `StableHashFrom`), bit for
/// bit the same value.  tests/test_host_model.cpp keeps the unfolded
/// form as a differential oracle.
class HostModel {
 public:
  explicit HostModel(HostModelConfig config)
      : config_(config), seed_state_(StableHash({config.seed})) {}

  /// Whether the address is populated at all (a machine is plugged in).
  /// Drawn against the subnet's occupancy.  A churn share of addresses
  /// re-rolls per epoch (dynamic assignment); the rest is epoch-stable.
  bool Exists(Ipv4Address address, const Subnet& subnet) const {
    return Exists(Fold(address), subnet);
  }

  /// Active in the ZMap snapshot taken the day before the measurement.
  bool ActiveInSnapshot(Ipv4Address address, const Subnet& subnet) const {
    const std::uint64_t state = Fold(address);
    return Exists(state, subnet) &&
           Draw(state, 0x54AFULL + config_.epoch * 0x51DULL) <
               config_.snapshot_availability;
  }

  /// Responsive when the Hobbit prober actually sends packets.
  bool ActiveAtProbeTime(Ipv4Address address, const Subnet& subnet) const {
    const std::uint64_t state = Fold(address);
    return Exists(state, subnet) &&
           Draw(state, 0x9206EULL + config_.epoch * 0x51DULL) <
               config_.probe_availability;
  }

  /// Operating-system family (determines the default TTL of replies).
  TtlFamily OsOf(Ipv4Address address) const {
    double u = Draw(Fold(address), 0x05F4ULL);
    if (u < config_.p_unix) return TtlFamily::kUnix64;
    u -= config_.p_unix;
    if (u < config_.p_windows) return TtlFamily::kWindows128;
    u -= config_.p_windows;
    if (u < config_.p_network) return TtlFamily::kNetwork255;
    return TtlFamily::kLegacy32;
  }

  int DefaultTtl(Ipv4Address address) const {
    return DefaultTtlOf(OsOf(address));
  }

 private:
  /// The hash state after folding `{seed, address}`.
  std::uint64_t Fold(Ipv4Address address) const {
    return StableHashFrom(seed_state_, {address.value()});
  }

  static double Draw(std::uint64_t state, std::uint64_t salt) {
    return HashToUnit(StableHashFrom(state, {salt}));
  }

  bool Exists(std::uint64_t state, const Subnet& subnet) const {
    // The existence salt is 0xE15 + (churns ? epoch : 0) * 0x9E37, which
    // is 0xE15 in both branches at epoch 0: the churn draw only matters
    // from the first re-roll on.
    std::uint64_t salt = 0xE15ULL;
    if (config_.epoch != 0 &&
        Draw(state, 0xC4324ULL) < config_.p_address_churn) {
      salt += config_.epoch * 0x9E37ULL;
    }
    return Draw(state, salt) < subnet.occupancy;
  }

  HostModelConfig config_;
  std::uint64_t seed_state_;  // the StableHash state after {seed}
};

}  // namespace hobbit::netsim
