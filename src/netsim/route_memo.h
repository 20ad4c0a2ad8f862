// route_memo.h — exact per-prober memoization of the forwarding walk.
//
// A probe's path is a chain of per-router decisions: is this router a
// gateway of the destination's subnet, which FIB entry matches the
// destination, and which of the entry's next hops the balancer picks.  A
// measurement campaign sends many probes into one destination in a row
// (the echo, the TTL walk, an MDA flow sweep), and every one of them asks
// the same routers the same questions, differing only in the flow
// identifier or the probe serial.  RouteMemo keeps one *hop row* per
// router, decoded once per (router, destination) and reused by every
// later probe to that destination that crosses the router.
//
// A row holds everything about the router that depends on the
// destination but not on the probe:
//   * the gateway bit (the walk ends here);
//   * the FIB match, itself memoized across destinations: the matched
//     entry is keyed by `dst >> (32 - fib.max_length())`.
//     `Fib::LookupEntry` probes, for every prefix length present in the
//     table, the canonical prefix of the destination at that length, so
//     two destinations sharing their canonical prefix at the table's
//     longest present length get the identical result;
//   * the next hops, inlined when the group is narrow;
//   * the balancer's hash state, folded as far as the destination allows.
//     StableHash folds its parts strictly left to right
//     (`StableHashFrom`), so `StableHashFrom(seed_state, {router, dst,
//     src})` folded once is bit-identical to the prefix of every per-flow
//     hash `{router, dst, src, flow}`: a per-flow hop then costs one
//     `Mix64(state ^ flow) % n`.  The three per-destination policies hash
//     no probe field at all, so their pick is stored outright.  Only
//     kPerPacket stays per probe (`{router, dst}` pre-folded, then
//     `{serial, 0xBEEF}`), because its pick depends on the serial;
//   * the RouterResponds draw, a pure function of (router, destination),
//     made on first use.
// Simulator::Send and ResolvePath walk only through a memo, so rows are
// the simulator's one forward walk.  tests/test_route_memo.cpp checks its
// paths against the FIB-resolved walk of tests/walk_oracle.h, and replies
// through a warm memo against replies through a fresh one.
//
// Invalidation: rows depend on the topology (FIBs, subnets, response
// models) and on the simulator that decoded them (its seed and source
// address).  The memo snapshots the topology's identity and
// mutation_epoch() plus that simulator key, and drops every row when any
// of them changes — so dynamic-topology tests that edit FIBs mid-run stay
// correct, and a memo handed from one vantage's simulator to another
// never serves the first vantage's picks.  A zero-filled row is never
// taken as decoded, whatever its destination field reads (0.0.0.0
// included).
//
// Threading: a RouteMemo is single-owner mutable state.  Give each
// measurement thread (or each BlockProber) its own; the shared Simulator
// stays const and is never written through this path.
//
// Cold-start cost: binding a memo zero-fills one 64-byte row per router in
// the topology (about 2.9 MB for a 45 k-router world).  On one thread of a
// 4-core Xeon VM, reprobing a /24 through a fresh memo takes about 0.8 ms,
// against 0.06 ms through a warm one.  Keep one memo (one BlockProber) per
// worker or per loop and reuse it across blocks; never build one per /24.
#pragma once

#include <cstdint>

#include "common/arena.h"
#include "netsim/rng.h"
#include "netsim/topology.h"

namespace hobbit::netsim {

class RouteMemo {
 public:
  /// How a decoded row forwards a probe.
  enum class HopMode : std::uint8_t {
    kDeadEnd,    ///< no FIB match or an empty group: the walk fails here
    kGateway,    ///< a gateway of the destination's subnet: the walk ends
    kFixed,      ///< one next hop for every probe (`next_hops[0]`)
    kPerFlow,    ///< `next_hops[Mix64(hash_state ^ flow) % count]`
    /// `next_hops[StableHashFrom(hash_state, {serial, 0xBEEF}) % count]`
    kPerPacket,
  };

  static constexpr int kInlineHops = 7;

  /// One router's forwarding facts for one destination; one cache line.
  struct HopRow {
    std::uint64_t hash_state = 0;
    /// `inline_hops`, or the FIB group's own storage when it is wider.
    const RouterId* next_hops = nullptr;
    /// FIB memo: the entry matched for destinations with this key.
    const FibEntry* fib_entry = nullptr;
    std::uint32_t fib_key = 0;
    std::uint32_t dst = 0;
    std::uint16_t next_hop_count = 0;
    HopMode mode = HopMode::kDeadEnd;
    std::uint8_t flags = 0;
    RouterId inline_hops[kInlineHops] = {};
  };
  static_assert(sizeof(HopRow) == 64);

  static constexpr std::uint8_t kDecoded = 1;
  static constexpr std::uint8_t kFibFilled = 2;
  static constexpr std::uint8_t kRespondsKnown = 4;
  static constexpr std::uint8_t kResponds = 8;

  /// Validates the memo against `topology` and the calling simulator's
  /// hash key (`seed_state`, `source`), dropping every row and subnet
  /// slot when any changed.  Call once per walk, before Row/FindSubnet.
  void Bind(const Topology& topology, std::uint64_t seed_state,
            Ipv4Address source) {
    if (topology_ == &topology && epoch_ == topology.mutation_epoch() &&
        seed_state_ == seed_state && source_ == source.value()) {
      return;
    }
    topology_ = &topology;
    epoch_ = topology.mutation_epoch();
    seed_state_ = seed_state;
    source_ = source.value();
    // Both tables live in one per-memo arena: an epoch bump (route churn
    // in a streaming campaign re-validates every wave) rewinds the arena
    // and re-carves the same retained chunks — zero-filled arrays laid
    // out back to back, no allocator round trips.
    arena_.Reset();
    rows_ = arena_.AllocateArray<HopRow>(topology.router_count());
    subnets_ = arena_.AllocateArray<SubnetSlot>(kSubnetSlots);
  }

  /// The row of `router` decoded for `dst`: served as is when it already
  /// is, else `decode(row)` fills its forwarding fields first (the memo
  /// owns `dst` and kDecoded; decode may read and keep the FIB memo).
  template <typename Decode>
  HopRow& Row(RouterId router, Ipv4Address dst, Decode&& decode) {
    HopRow& row = rows_[router];
    if ((row.flags & kDecoded) != 0 && row.dst == dst.value()) {
      ++hits_;
      return row;
    }
    ++misses_;
    row.flags &= kFibFilled;
    decode(row);
    row.dst = dst.value();
    row.flags |= kDecoded;
    return row;
  }

  /// Memoized equivalent of `topology.FindSubnet(dst)` for the bound
  /// topology.  Keyed by the full destination address, so a hit is
  /// trivially the same answer the lookup would have produced.
  SubnetId FindSubnet(Ipv4Address dst) {
    SubnetSlot& slot = subnets_[static_cast<std::size_t>(
                                    Mix64(dst.value())) &
                                (kSubnetSlots - 1)];
    if (!slot.filled || slot.dst != dst.value()) {
      slot.dst = dst.value();
      slot.subnet = topology_->FindSubnet(dst);
      slot.filled = true;
    }
    return slot.subnet;
  }

  /// Row lookups served from a decoded row, and rows (re)decoded.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::size_t kSubnetSlots = 256;
  struct SubnetSlot {
    std::uint32_t dst = 0;
    SubnetId subnet = kNoSubnet;
    bool filled = false;
  };

  const Topology* topology_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint64_t seed_state_ = 0;
  std::uint32_t source_ = 0;
  common::Arena arena_;
  HopRow* rows_ = nullptr;
  SubnetSlot* subnets_ = nullptr;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hobbit::netsim
