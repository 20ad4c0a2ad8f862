// route_memo.h — exact per-campaign memoization of FIB resolutions.
//
// The simulator resolves a probe's path by running a longest-prefix-match
// binary search in every router's FIB along the way.  A measurement
// campaign re-traces the same /24 dozens of times (the §3.3 schedule, MDA
// flow variation, the TTL walk), so the vast majority of those searches
// repeat earlier ones with the same answer.  RouteMemo caches them.
//
// Correctness is exact, not heuristic.  `Fib::LookupEntry` probes, for
// every prefix length present in the table, the canonical prefix of the
// destination at that length.  Two destinations that share their
// canonical prefix at the table's *longest* present length therefore make
// the identical probe sequence and get the identical result (including
// "no match").  The memo keys each cached resolution by that canonical
// prefix — `dst >> (32 - fib.max_length())` — so a hit is provably the
// answer the search would have produced.  Load-balancing policy is
// irrelevant here: the memo caches the *matched entry*, and the per-flow
// next-hop choice is still made per probe by the simulator.
//
// Invalidation: the memo snapshots Topology::mutation_epoch() and drops
// everything whenever the counter (or the topology identity) changes, so
// dynamic-topology tests that edit FIBs mid-run stay correct.
//
// Threading: a RouteMemo is single-owner mutable state.  Give each
// measurement thread (or each BlockProber) its own; the shared Simulator
// stays const and is never written through this path.
//
// Cold-start cost: the first lookup zero-fills one 64-byte RouterCache
// per router in the topology (about 2.9 MB for a 45 k-router world),
// which costs more than reprobing a whole /24 through a warm memo.  Keep
// one memo (one BlockProber) per worker or per loop and reuse it across
// blocks; never build one per /24.
#pragma once

#include <array>
#include <cstdint>

#include "common/arena.h"
#include "netsim/rng.h"
#include "netsim/topology.h"

namespace hobbit::netsim {

class RouteMemo {
 public:
  /// A memoized forward walk: the router at every hop of the path from
  /// the vantage to `dst` for one flow, or length 0 for an unroutable
  /// destination.  Exact, because the walk is a pure function of
  /// (destination, flow) at a fixed topology epoch: every FIB match keys
  /// on the destination alone and every load-balancer policy hashes only
  /// (router, destination, source, flow) — except kPerPacket, whose picks
  /// depend on the probe serial, so walks through a multi-next-hop
  /// per-packet balancer are never stored (see Simulator::WalkForward).
  static constexpr int kMaxCachedHops = 24;
  struct PathSlot {
    std::uint32_t dst = 0;
    std::uint16_t flow = 0;
    bool filled = false;
    std::uint8_t length = 0;  // hops to the last-hop router; 0 = unroutable
    std::array<RouterId, kMaxCachedHops> hops;
  };

  /// Memoized equivalent of `topology.router(router).fib.LookupEntry(dst)`.
  const FibEntry* Lookup(const Topology& topology, RouterId router,
                         Ipv4Address dst) {
    Validate(topology);
    const Fib& fib = topology.router(router).fib;
    if (fib.size() == 0) return nullptr;
    const int max_length = fib.max_length();
    const std::uint32_t key =
        max_length == 0 ? 0u : dst.value() >> (32 - max_length);
    Slot& slot = caches_[router].slots[key & (kWays - 1)];
    if (slot.filled && slot.key == key) {
      ++hits_;
      return slot.entry;
    }
    ++misses_;
    slot.key = key;
    slot.entry = fib.LookupEntry(dst);
    slot.filled = true;
    return slot.entry;
  }

  /// The cached walk for (dst, flow), or nullptr on a miss.  The pointer
  /// is invalidated by the next StorePath/Lookup/FindPath call.
  const PathSlot* FindPath(const Topology& topology, Ipv4Address dst,
                           std::uint16_t flow) {
    Validate(topology);
    const PathSlot& slot = paths_[PathIndex(dst, flow)];
    if (slot.filled && slot.dst == dst.value() && slot.flow == flow) {
      ++path_hits_;
      return &slot;
    }
    ++path_misses_;
    return nullptr;
  }

  /// Records a completed walk.  `length` 0 marks an unroutable
  /// destination; `hops[i]` is the router at hop i + 1 (only the first
  /// `length` entries are read back).  Callers must not store
  /// serial-dependent walks (kPerPacket fan-out on the path).
  void StorePath(const Topology& topology, Ipv4Address dst,
                 std::uint16_t flow, const RouterId* hops, int length) {
    Validate(topology);
    PathSlot& slot = paths_[PathIndex(dst, flow)];
    slot.dst = dst.value();
    slot.flow = flow;
    slot.length = static_cast<std::uint8_t>(length);
    for (int i = 0; i < length; ++i) slot.hops[i] = hops[i];
    slot.filled = true;
  }

  /// Memoized equivalent of `topology.FindSubnet(dst)`.  Keyed by the
  /// full destination address, so a hit is trivially the same answer the
  /// lookup would have produced.
  SubnetId FindSubnet(const Topology& topology, Ipv4Address dst) {
    Validate(topology);
    SubnetSlot& slot = subnets_[static_cast<std::size_t>(
                                    Mix64(dst.value())) &
                                (kSubnetSlots - 1)];
    if (!slot.filled || slot.dst != dst.value()) {
      slot.dst = dst.value();
      slot.subnet = topology.FindSubnet(dst);
      slot.filled = true;
    }
    return slot.subnet;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t path_hits() const { return path_hits_; }
  std::uint64_t path_misses() const { return path_misses_; }

 private:
  void Validate(const Topology& topology) {
    if (topology_ == &topology && epoch_ == topology.mutation_epoch()) {
      return;
    }
    topology_ = &topology;
    epoch_ = topology.mutation_epoch();
    // All three tables live in one per-memo arena: an epoch bump (route
    // churn in a streaming campaign re-validates every wave) rewinds the
    // arena and re-carves the same retained chunks — zero-filled slot
    // arrays laid out back to back, no allocator round trips.  All slot
    // types are trivially destructible, which AllocateArray enforces.
    arena_.Reset();
    caches_ = arena_.AllocateArray<RouterCache>(topology.router_count());
    paths_ = arena_.AllocateArray<PathSlot>(kPathSlots);
    subnets_ = arena_.AllocateArray<SubnetSlot>(kSubnetSlots);
  }

  static std::size_t PathIndex(Ipv4Address dst, std::uint16_t flow) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(dst.value()) << 16) | flow;
    return static_cast<std::size_t>(Mix64(key)) & (kPathSlots - 1);
  }

  // Plenty for one block's schedule (a /24 touches at most a few dozen
  // (destination, flow) pairs at a time) while staying cache-resident.
  static constexpr std::size_t kPathSlots = 512;

  static constexpr std::size_t kSubnetSlots = 256;
  struct SubnetSlot {
    std::uint32_t dst = 0;
    SubnetId subnet = kNoSubnet;
    bool filled = false;
  };

  // Direct-mapped, 4-way by the key's low bits: a /24 campaign round-robins
  // across its four /26s, and edge FIBs carry up to /26 entries, so the
  // four in-flight keys land in distinct slots instead of evicting each
  // other.
  static constexpr std::size_t kWays = 4;
  struct Slot {
    std::uint32_t key = 0;
    const FibEntry* entry = nullptr;
    bool filled = false;
  };
  struct RouterCache {
    std::array<Slot, kWays> slots;
  };

  const Topology* topology_ = nullptr;
  std::uint64_t epoch_ = 0;
  common::Arena arena_;
  RouterCache* caches_ = nullptr;
  PathSlot* paths_ = nullptr;
  SubnetSlot* subnets_ = nullptr;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t path_hits_ = 0;
  std::uint64_t path_misses_ = 0;
};

}  // namespace hobbit::netsim
